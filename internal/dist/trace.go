package dist

import (
	"fmt"

	"ompssgo/internal/obs"
)

// Cross-process trace plumbing. Workers trace their own kernel execution
// (see worker.go) and ship event batches back piggybacked on completions
// plus one final Trace frame at shutdown. The coordinator buckets the
// batches per worker incarnation — (slot, generation) — together with the
// clock offset estimated from that incarnation's handshake round-trip,
// and folds everything into one obs.Trace at teardown (TraceSink).

// traceBucket accumulates one worker incarnation's shipped events.
type traceBucket struct {
	slot    int
	gen     int
	pid     int
	offset  int64 // coordinator-clock = worker-clock + offset
	events  []obs.Event
	dropped uint64
}

// openBucketLocked starts a fresh bucket for a (re)admitted worker. The
// offset estimate is NTP-style: the worker sampled Hello.Now somewhere
// inside the challenge round-trip, most plausibly at its midpoint, so
// mid-since-epoch minus Hello.Now aligns the two clocks to ±rtt/2.
// Callers on the initial-admission path run before any reader goroutine
// exists; the rejoin path holds rt.mu.
func (rt *RT) openBucketLocked(w *workerState, a admitted) {
	if rt.cfg.traceCap <= 0 || rt.rec == nil {
		return // offsets are relative to the recorder's epoch; no recorder, no merge
	}
	tb := &traceBucket{
		slot:   w.slot,
		gen:    w.gen,
		pid:    a.hello.PID,
		offset: a.sync.mid.Sub(rt.epoch).Nanoseconds() - a.hello.Now,
	}
	w.tb = tb
	rt.buckets = append(rt.buckets, tb)
}

// handleTrace banks a worker's final trace drain (the frame it sends
// right before exiting on Shutdown).
func (rt *RT) handleTrace(w *workerState, gen int, m *TraceMsg) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if w.gen != gen || w.tb == nil {
		return
	}
	w.tb.events = append(w.tb.events, m.Events...)
	w.tb.dropped += m.Dropped
}

// mergedTrace folds the coordinator's own stream and every banked worker
// bucket into one clock-aligned trace. Called after the readers drained,
// so the buckets are quiescent.
func (rt *RT) mergedTrace() *obs.Trace {
	base := rt.rec.Snapshot()
	rt.mu.Lock()
	buckets := rt.buckets
	rt.mu.Unlock()
	streams := make([]obs.TrackStream, len(buckets))
	for i, tb := range buckets {
		streams[i] = obs.TrackStream{
			Proc: "worker", Slot: tb.slot, Gen: tb.gen, PID: tb.pid,
			Offset: tb.offset, Events: tb.events, Dropped: tb.dropped,
		}
	}
	return obs.MergeTraces(base, streams)
}

// ReconcileTrace cross-checks a merged distributed trace against the
// run's coordinator-side Stats: every remotely executed task appears
// exactly once on a worker track, and the worker-observed transfer,
// cache-hit, and chain accounting matches what the coordinator booked. It is exact for clean runs; a run with lost workers or failed
// tasks legitimately under-reports worker-side events (a dead worker's
// batches never arrive), so those checks are skipped. A truncated trace
// cannot be reconciled and is reported as such.
func ReconcileTrace(tr *obs.Trace, st Stats) error {
	if tr.TotalDropped() > 0 {
		return fmt.Errorf("dist: trace truncated (%d events dropped): raise the trace ring capacity to reconcile", tr.TotalDropped())
	}
	workerLane := make(map[int32]bool)
	for _, t := range tr.Tracks {
		if t.Proc == "worker" {
			workerLane[t.Lane] = true
		}
	}

	starts := make(map[uint64]int)
	ends := make(map[uint64]int)
	var xferBytes int64
	var hits, chains, chainLinks int
	for i := range tr.Events {
		ev := &tr.Events[i]
		if !workerLane[ev.Worker] {
			continue
		}
		switch ev.Kind {
		case obs.EvStart:
			starts[ev.Task]++
		case obs.EvEnd:
			ends[ev.Task]++
		case obs.EvXfer:
			xferBytes += int64(ev.Arg)
		case obs.EvXferHit:
			hits++
		case obs.EvChain:
			chains++
			chainLinks += int(ev.Arg)
		}
	}

	for task, n := range starts {
		if n != 1 || ends[task] != 1 {
			return fmt.Errorf("dist: task %d recorded %d starts / %d ends on worker tracks, want exactly one of each", task, n, ends[task])
		}
	}
	clean := st.WorkersLost == 0 && st.Failed == 0
	if !clean {
		return nil // a lossy or failing run legitimately under-ships worker events
	}
	if executed := st.Tasks - st.Skipped; len(starts) != executed {
		return fmt.Errorf("dist: %d tasks executed on worker tracks, stats say %d", len(starts), executed)
	}
	if xferBytes != st.BytesToWorkers {
		return fmt.Errorf("dist: worker tracks saw %d transferred bytes, stats booked %d", xferBytes, st.BytesToWorkers)
	}
	if hits != st.TransfersAvoided {
		return fmt.Errorf("dist: worker tracks saw %d cache hits, stats booked %d", hits, st.TransfersAvoided)
	}
	if chains != st.Chains {
		return fmt.Errorf("dist: worker tracks saw %d chain frames, stats booked %d", chains, st.Chains)
	}
	if chainLinks != st.Chains+st.ChainedTasks {
		return fmt.Errorf("dist: worker chain frames covered %d tasks, stats booked %d", chainLinks, st.Chains+st.ChainedTasks)
	}
	return nil
}
