package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry of the Chrome trace-event format ("JSON Object
// Format") understood by chrome://tracing and Perfetto. Timestamps and
// durations are microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// WriteChromeTrace exports the trace as Chrome trace-event JSON: one track
// (tid) per worker lane, a complete ("X") slice per executed task, flow
// arrows ("s"/"f") along every dependence edge whose endpoints are both in
// the stream, instant markers for steals, skips, renames, writebacks and
// transfers, and a running-task counter that draws the
// instantaneous-parallelism profile. A merged multi-process trace
// (Trace.Tracks set) renders each worker process as its own Chrome process
// row — pid 0 is the coordinator, each (slot, generation) worker
// incarnation gets the next pid — so remote execution sits visually beside
// the dispatch that caused it. Load the file in chrome://tracing or
// ui.perfetto.dev.
func WriteChromeTrace(w io.Writer, tr *Trace) error {
	a := Analyze(tr)
	doc := chromeDoc{DisplayTimeUnit: "ms"}
	add := func(ev chromeEvent) { doc.TraceEvents = append(doc.TraceEvents, ev) }

	// Lane → (pid, tid) placement. Single-process traces put every lane on
	// pid 0; merged traces map each worker track onto its own pid.
	pidOf := make([]int, tr.Workers+1)
	tidOf := make([]int, tr.Workers+1)
	for i := range tidOf {
		tidOf[i] = i
	}
	add(chromeEvent{Name: "process_name", Phase: "M", PID: 0,
		Args: map[string]any{"name": fmt.Sprintf("ompssgo (%s)", tr.Backend)}})
	nextPID := 1
	for lane := 0; lane < tr.Workers; lane++ {
		if t := trackAt(tr, lane); t != nil && t.Proc != "coordinator" {
			pidOf[lane] = nextPID
			tidOf[lane] = 0
			name := t.Label
			if name == "" {
				name = fmt.Sprintf("%s slot %d gen %d", t.Proc, t.Slot, t.Gen)
			}
			add(chromeEvent{Name: "process_name", Phase: "M", PID: nextPID,
				Args: map[string]any{"name": name}})
			add(chromeEvent{Name: "thread_name", Phase: "M", PID: nextPID, TID: 0,
				Args: map[string]any{"name": "kernel"}})
			nextPID++
			continue
		}
		name := fmt.Sprintf("worker %d", lane)
		if len(tr.Tracks) == 0 && lane == tr.Workers-1 {
			name = fmt.Sprintf("master (lane %d)", lane)
		}
		add(chromeEvent{Name: "thread_name", Phase: "M", PID: 0, TID: lane,
			Args: map[string]any{"name": name}})
	}
	add(chromeEvent{Name: "thread_name", Phase: "M", PID: 0, TID: tr.Workers,
		Args: map[string]any{"name": "runtime"}})
	place := func(lane int) (int, int) {
		if lane < 0 || lane > tr.Workers {
			lane = tr.Workers
		}
		return pidOf[lane], tidOf[lane]
	}

	// Task slices, in submission order for a stable document.
	for _, id := range a.Order {
		t := a.Tasks[id]
		if !t.Complete() {
			continue
		}
		d := us(t.Exec)
		cat := "task"
		if t.Skipped {
			cat = "skipped"
		}
		pid, tid := place(t.Worker)
		add(chromeEvent{Name: t.Name(), Cat: cat, Phase: "X",
			TS: us(t.Start), Dur: &d, PID: pid, TID: tid,
			Args: map[string]any{"task": t.ID, "preds": len(t.Preds), "slack_us": us(t.Slack)}})
	}
	// Flow arrows along dependence edges: start at the predecessor's end,
	// finish bound to the successor slice's beginning.
	edge := 0
	for _, id := range a.Order {
		t := a.Tasks[id]
		if !t.Complete() {
			continue
		}
		for _, p := range t.Preds {
			pt := a.Tasks[p]
			if pt == nil || !pt.Complete() {
				continue
			}
			edge++
			eid := fmt.Sprintf("dep%d", edge)
			spid, stid := place(pt.Worker)
			fpid, ftid := place(t.Worker)
			add(chromeEvent{Name: "dep", Cat: "dep", Phase: "s", ID: eid,
				TS: us(pt.End), PID: spid, TID: stid})
			add(chromeEvent{Name: "dep", Cat: "dep", Phase: "f", BP: "e", ID: eid,
				TS: us(t.Start), PID: fpid, TID: ftid})
		}
	}
	// Instant markers and the parallelism counter, straight off the stream.
	running := 0
	for i := range tr.Events {
		ev := &tr.Events[i]
		pid, tid := place(int(ev.Worker))
		switch ev.Kind {
		case EvStart, EvEnd:
			if t := a.Tasks[ev.Task]; t == nil || !t.Complete() {
				continue
			}
			if ev.Kind == EvStart {
				running++
			} else {
				running--
			}
			add(chromeEvent{Name: "parallelism", Phase: "C", TS: us(ev.At), PID: 0,
				Args: map[string]any{"running": running}})
		case EvSteal:
			add(chromeEvent{Name: "steal", Cat: "sched", Phase: "i", Scope: "t",
				TS: us(ev.At), PID: pid, TID: tid,
				Args: map[string]any{"victim": ev.Arg, "task": ev.Task}})
		case EvSkip:
			add(chromeEvent{Name: "skip", Cat: "sched", Phase: "i", Scope: "t",
				TS: us(ev.At), PID: pid, TID: tid, Args: map[string]any{"task": ev.Task}})
		case EvRename:
			add(chromeEvent{Name: "rename", Cat: "rename", Phase: "i", Scope: "t",
				TS: us(ev.At), PID: pid, TID: tid, Args: map[string]any{"task": ev.Task}})
		case EvWriteback:
			add(chromeEvent{Name: "writeback", Cat: "rename", Phase: "i", Scope: "t",
				TS: us(ev.At), PID: pid, TID: tid, Args: map[string]any{"task": ev.Task}})
		case EvXfer:
			add(chromeEvent{Name: "xfer", Cat: "dist", Phase: "i", Scope: "t",
				TS: us(ev.At), PID: pid, TID: tid,
				Args: map[string]any{"task": ev.Task, "bytes": ev.Arg}})
		case EvXferHit:
			add(chromeEvent{Name: "xfer-hit", Cat: "dist", Phase: "i", Scope: "t",
				TS: us(ev.At), PID: pid, TID: tid,
				Args: map[string]any{"task": ev.Task, "bytes": ev.Arg}})
		case EvChain:
			add(chromeEvent{Name: "chain", Cat: "dist", Phase: "i", Scope: "t",
				TS: us(ev.At), PID: pid, TID: tid,
				Args: map[string]any{"task": ev.Task, "tasks": ev.Arg}})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&doc)
}

// trackAt returns the Track metadata for a lane, nil when the trace carries
// none (single-process traces) or the lane has no entry.
func trackAt(tr *Trace, lane int) *Track {
	for i := range tr.Tracks {
		if int(tr.Tracks[i].Lane) == lane {
			return &tr.Tracks[i]
		}
	}
	return nil
}
