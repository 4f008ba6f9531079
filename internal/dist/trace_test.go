package dist

import (
	"strings"
	"testing"

	"ompssgo/internal/obs"
)

// runTraced runs a two-worker workload that exercises every traced path —
// shipped transfers, cache hits and chains — and returns the merged trace
// with the run's stats.
func runTraced(t *testing.T, workers int, opts ...Option) (*obs.Trace, Stats) {
	t.Helper()
	const n = 1 << 10
	var tr *obs.Trace
	opts = append(opts, TraceSink(func(m *obs.Trace) { tr = m }))
	stats, err := Run(workers, func(rt *RT) error {
		a := rt.Register(make([]byte, n))
		b := rt.Register(make([]byte, n))
		sum := rt.Register(make([]byte, n))
		rt.Task("test.fill", []byte{3}, Out(a))
		rt.Task("test.fill", []byte{4}, Out(b))
		for i := 0; i < 3; i++ {
			rt.Task("test.inc", nil, InOut(a))
			rt.Task("test.inc", nil, InOut(b))
		}
		rt.Task("test.add", nil, In(a), In(b), Out(sum))
		return rt.Taskwait()
	}, opts...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tr == nil {
		t.Fatalf("TraceSink never ran")
	}
	return tr, stats
}

// TestDistMergedTrace is the acceptance check of the cross-process trace:
// a two-process run yields one merged stream where every worker-executed
// task appears exactly once on its worker track and the event counts
// reconcile with the coordinator's Stats.
func TestDistMergedTrace(t *testing.T) {
	tr, stats := runTraced(t, 2)

	if err := ReconcileTrace(tr, stats); err != nil {
		t.Fatalf("ReconcileTrace: %v", err)
	}

	// Track layout: the coordinator's lanes first, then one labelled track
	// per worker incarnation.
	var coord, worker int
	for _, trk := range tr.Tracks {
		switch trk.Proc {
		case "coordinator":
			coord++
		case "worker":
			worker++
			if trk.PID == 0 {
				t.Fatalf("worker track %+v has no PID", trk)
			}
			if !strings.Contains(trk.Label, "worker slot") {
				t.Fatalf("worker track label = %q", trk.Label)
			}
		default:
			t.Fatalf("unexpected track proc %q", trk.Proc)
		}
	}
	if coord != 2 || worker != 2 {
		t.Fatalf("tracks: %d coordinator + %d worker lanes, want 2+2", coord, worker)
	}

	// The merged stream is renumbered and time-ordered.
	for i := range tr.Events {
		ev := &tr.Events[i]
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d after renumbering", i, ev.Seq)
		}
		if i > 0 && ev.At < tr.Events[i-1].At {
			t.Fatalf("event %d at %d precedes its predecessor at %d", i, ev.At, tr.Events[i-1].At)
		}
	}

	// The analyzer sees the remote execution: tasks landed on worker lanes,
	// transfers and chains got counted.
	a := obs.Analyze(tr)
	if a.Executed == 0 {
		t.Fatalf("analysis saw no execution: %+v", a)
	}
}

// TestReconcileTraceDetectsMismatch tampers with the stats a merged trace
// is checked against and expects the reconciler to object.
func TestReconcileTraceDetectsMismatch(t *testing.T) {
	tr, stats := runTraced(t, 2)
	bad := stats
	bad.BytesToWorkers += 1
	if err := ReconcileTrace(tr, bad); err == nil {
		t.Fatalf("ReconcileTrace accepted tampered BytesToWorkers")
	}
	bad = stats
	bad.Tasks += 1
	if err := ReconcileTrace(tr, bad); err == nil {
		t.Fatalf("ReconcileTrace accepted tampered task count")
	}
}
