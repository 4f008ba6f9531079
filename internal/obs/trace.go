package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// TraceSchema identifies the raw-trace JSON document format written by
// Trace.WriteJSON and read back by ReadTrace (cmd/ompss-trace's on-disk
// format).
const TraceSchema = "ompssgo/obs-trace/v1"

// Trace is the merged, ordered event stream of one run plus the metadata
// the analyzer needs: which backend recorded it, whether timestamps are
// virtual, how many lanes there were, and exactly how many events each
// ring overwrote (so truncation is visible, never silent).
type Trace struct {
	Backend string // "native" or "sim"
	Virtual bool   // timestamps are virtual nanoseconds
	Workers int
	// Capacity is the per-ring capacity the recorder ran with.
	Capacity int
	// Dropped is the exact per-ring overwrite count, indexed by lane;
	// the last entry is the overflow ring (no-lane emitters).
	Dropped []uint64
	// Tracks carries lane identity for merged multi-process traces
	// (MergeTraces); nil for single-process traces, where every lane
	// belongs to the recording process.
	Tracks []Track
	// Events is the merged stream, ascending by Seq.
	Events []Event
}

// TotalDropped sums the per-ring drop counts.
func (t *Trace) TotalDropped() uint64 {
	var n uint64
	for _, d := range t.Dropped {
		n += d
	}
	return n
}

// Snapshot merges the recorder's rings into an ordered Trace. Call after
// the run drained for a complete stream; a mid-run snapshot is safe and
// returns a consistent prefix-with-holes (in-flight slots are skipped).
func (r *Recorder) Snapshot() *Trace {
	t := &Trace{
		Backend:  r.backend,
		Virtual:  r.virtual,
		Workers:  r.workers,
		Capacity: r.capacity,
	}
	if len(r.rings) == 0 {
		return t
	}
	t.Dropped = make([]uint64, len(r.rings))
	var n int
	for i := range r.rings {
		t.Dropped[i] = r.rings[i].dropped()
		h := r.rings[i].head.Load()
		if c := uint64(len(r.rings[i].slots)); h > c {
			h = c
		}
		n += int(h)
	}
	t.Events = make([]Event, 0, n)
	for i := range r.rings {
		t.Events = r.rings[i].collect(t.Events)
	}
	sort.Slice(t.Events, func(i, j int) bool { return t.Events[i].Seq < t.Events[j].Seq })
	return t
}

// Sessions returns the distinct session IDs that submitted tasks in this
// trace, ascending, with the number of submissions per session. Traces from
// pre-session runs (or engine-level emitters) report everything under ID 0.
func (t *Trace) Sessions() ([]uint64, map[uint64]int) {
	counts := make(map[uint64]int)
	for i := range t.Events {
		if t.Events[i].Kind == EvSubmit {
			counts[t.Events[i].Sess]++
		}
	}
	ids := make([]uint64, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, counts
}

// FilterSession returns a view of the trace containing only one session's
// task-lifecycle events: submissions tagged with the session ID, every
// task-scoped event (edge/ready/start/end/skip/steal/rename) of those
// tasks, and the edges between them. Worker-scoped events (idle, taskwait)
// are dropped — they describe lanes shared by every session. Metadata
// (backend, workers, drop counts) is preserved so the analyzer's reports
// stay honest about truncation.
func (t *Trace) FilterSession(sess uint64) *Trace {
	mine := make(map[uint64]struct{})
	for i := range t.Events {
		ev := &t.Events[i]
		if ev.Kind == EvSubmit && ev.Sess == sess && ev.Task != 0 {
			mine[ev.Task] = struct{}{}
		}
	}
	out := &Trace{
		Backend:  t.Backend,
		Virtual:  t.Virtual,
		Workers:  t.Workers,
		Capacity: t.Capacity,
		Dropped:  t.Dropped,
	}
	for i := range t.Events {
		ev := t.Events[i]
		switch ev.Kind {
		case EvIdleEnter, EvIdleExit, EvTaskwaitEnter, EvTaskwaitExit:
			continue
		case EvEdge:
			// Keep an edge only when both endpoints are in-session; a
			// cross-session edge (shared data) would drag foreign tasks
			// into the critical-path analysis.
			if _, ok := mine[ev.Task]; !ok {
				continue
			}
			if _, ok := mine[ev.Arg]; !ok {
				continue
			}
		default:
			if _, ok := mine[ev.Task]; !ok {
				continue
			}
		}
		out.Events = append(out.Events, ev)
	}
	return out
}

// wireTrace is the JSON document layout. Events use short keys — traces
// run to hundreds of thousands of events.
type wireTrace struct {
	Schema   string      `json:"schema"`
	Backend  string      `json:"backend"`
	Virtual  bool        `json:"virtual"`
	Workers  int         `json:"workers"`
	Capacity int         `json:"capacity"`
	Dropped  []uint64    `json:"dropped"`
	Tracks   []Track     `json:"tracks,omitempty"`
	Events   []wireEvent `json:"events"`
}

type wireEvent struct {
	Seq    uint64 `json:"s"`
	At     int64  `json:"at"`
	Kind   string `json:"k"`
	Worker int32  `json:"w"`
	Task   uint64 `json:"t,omitempty"`
	Arg    uint64 `json:"a,omitempty"`
	Sess   uint64 `json:"sid,omitempty"`
	Label  string `json:"l,omitempty"`
}

// WriteJSON serializes the trace as the raw-trace document consumed by
// `ompss-trace analyze` and `ompss-trace export`.
func (t *Trace) WriteJSON(w io.Writer) error {
	wt := wireTrace{
		Schema:   TraceSchema,
		Backend:  t.Backend,
		Virtual:  t.Virtual,
		Workers:  t.Workers,
		Capacity: t.Capacity,
		Dropped:  t.Dropped,
		Tracks:   t.Tracks,
		Events:   make([]wireEvent, len(t.Events)),
	}
	for i, ev := range t.Events {
		wt.Events[i] = wireEvent{
			Seq:    ev.Seq,
			At:     ev.At,
			Kind:   ev.Kind.String(),
			Worker: ev.Worker,
			Task:   ev.Task,
			Arg:    ev.Arg,
			Sess:   ev.Sess,
			Label:  ev.Label,
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&wt)
}

// ReadTrace parses a raw-trace document.
func ReadTrace(rd io.Reader) (*Trace, error) {
	var wt wireTrace
	if err := json.NewDecoder(rd).Decode(&wt); err != nil {
		return nil, fmt.Errorf("obs: parse trace: %w", err)
	}
	if wt.Schema != TraceSchema {
		return nil, fmt.Errorf("obs: unknown trace schema %q (want %s)", wt.Schema, TraceSchema)
	}
	t := &Trace{
		Backend:  wt.Backend,
		Virtual:  wt.Virtual,
		Workers:  wt.Workers,
		Capacity: wt.Capacity,
		Dropped:  wt.Dropped,
		Tracks:   wt.Tracks,
		Events:   make([]Event, len(wt.Events)),
	}
	for i, ev := range wt.Events {
		k, ok := KindFromString(ev.Kind)
		if !ok {
			return nil, fmt.Errorf("obs: event %d: unknown kind %q", i, ev.Kind)
		}
		t.Events[i] = Event{
			Seq:    ev.Seq,
			At:     ev.At,
			Task:   ev.Task,
			Arg:    ev.Arg,
			Sess:   ev.Sess,
			Worker: ev.Worker,
			Kind:   k,
			Label:  ev.Label,
		}
	}
	sort.Slice(t.Events, func(i, j int) bool { return t.Events[i].Seq < t.Events[j].Seq })
	return t, nil
}
