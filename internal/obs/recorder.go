package obs

import "sync/atomic"

// DefaultCapacity is the default per-worker ring capacity (events). At
// ~72 bytes per slot this is ~2.4 MiB per lane; a run that outgrows it
// keeps the newest events and reports the exact drop count.
const DefaultCapacity = 1 << 15

// Option configures a Recorder.
type Option func(*Recorder)

// Capacity sets the per-worker ring capacity in events (rounded up to a
// power of two; minimum 8).
func Capacity(n int) Option {
	return func(r *Recorder) {
		if n < 8 {
			n = 8
		}
		r.capacity = n
	}
}

// Recorder collects trace events into per-worker ring buffers. Create one
// with NewRecorder, attach it to a run (ompss.Observe / ompss.Trace), and
// read the merged stream with Snapshot after the run drains. A recorder
// observes one run at a time; attaching it to a new run discards the
// previous run's events.
//
// All record-path methods are safe from any goroutine and allocate
// nothing; see the package comment for the synchronization contract.
type Recorder struct {
	capacity int
	workers  int
	backend  string
	virtual  bool
	clock    func() int64
	rings    []ring // workers+1: the extra ring absorbs no-lane emitters

	// seq sits on its own cache line: every emitter from every worker
	// fetch-adds it, and the read-mostly fields above must not ride along
	// on its invalidations.
	_   [64]byte
	seq atomic.Uint64
	_   [56]byte
}

// NewRecorder returns an idle recorder. Ring memory is allocated at
// Attach, when the lane count is known.
func NewRecorder(opts ...Option) *Recorder {
	r := &Recorder{capacity: DefaultCapacity}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Attach binds the recorder to a run: one ring per worker lane plus an
// overflow ring for no-lane emitters, a fresh sequence, and the run's
// epoch-relative clock (wall nanoseconds for native runs; virtual
// nanoseconds when virtualTime is set). Any previously recorded run is
// discarded. The executor calls this before its workers start; it is not
// safe concurrently with Emit.
func (r *Recorder) Attach(workers int, backend string, virtualTime bool, clock func() int64) {
	if workers < 1 {
		workers = 1
	}
	r.workers = workers
	r.backend = backend
	r.virtual = virtualTime
	r.clock = clock
	r.seq.Store(0)
	r.rings = make([]ring, workers+1)
	for i := range r.rings {
		r.rings[i].init(r.capacity)
	}
}

// ringFor maps a lane to its ring; out-of-range lanes (and -1, "no lane")
// share the overflow ring.
func (r *Recorder) ringFor(worker int) *ring {
	if worker >= 0 && worker < r.workers {
		return &r.rings[worker]
	}
	return &r.rings[r.workers]
}

// Emit records one label-less event. No-op before Attach.
func (r *Recorder) Emit(worker int, k Kind, task, arg uint64) {
	if len(r.rings) == 0 {
		return
	}
	r.ringFor(worker).put(Event{
		Seq:    r.seq.Add(1),
		At:     r.clock(),
		Task:   task,
		Arg:    arg,
		Worker: int32(worker),
		Kind:   k,
	})
}

// EmitLabel records one event carrying a label (EvSubmit).
func (r *Recorder) EmitLabel(worker int, k Kind, task, arg uint64, label string) {
	if len(r.rings) == 0 {
		return
	}
	r.ringFor(worker).put(Event{
		Seq:    r.seq.Add(1),
		At:     r.clock(),
		Task:   task,
		Arg:    arg,
		Worker: int32(worker),
		Kind:   k,
		Label:  label,
	})
}

// Group is a claim on one timestamp and a contiguous sequence range for n
// events emitted together from one instrumentation site (a submission with
// its edges, a completion with its releases). The events share the
// instant — they are the same scheduling action — so the clock read and
// the global fetch-add are paid once per site instead of once per event,
// which is what keeps the recorder-attached overhead flat on fine-grained
// task streams. A Group is a value; it must receive exactly the n Add
// calls it was sized for and must not outlive the site that claimed it.
type Group struct {
	ring *ring
	at   int64
	seq  uint64 // next seq to assign from the claimed range
	w    int32
}

// Group claims a timestamp and a seq range for n events on worker's ring.
// ok is false (and the Group inert) when the recorder is detached or n is
// not positive.
func (r *Recorder) Group(worker int, n int) (Group, bool) {
	if len(r.rings) == 0 || n <= 0 {
		return Group{}, false
	}
	return Group{
		ring: r.ringFor(worker),
		at:   r.clock(),
		seq:  r.seq.Add(uint64(n)) - uint64(n) + 1,
		w:    int32(worker),
	}, true
}

// Add records the group's next event.
func (g *Group) Add(k Kind, task, arg uint64, label string) {
	g.ring.put(Event{
		Seq:    g.seq,
		At:     g.at,
		Task:   task,
		Arg:    arg,
		Worker: g.w,
		Kind:   k,
		Label:  label,
	})
	g.seq++
}

// AddSess records the group's next event tagged with the submitting
// session's ID (EvSubmit from session-scoped executors).
func (g *Group) AddSess(k Kind, task, arg, sess uint64, label string) {
	g.ring.put(Event{
		Seq:    g.seq,
		At:     g.at,
		Task:   task,
		Arg:    arg,
		Sess:   sess,
		Worker: g.w,
		Kind:   k,
		Label:  label,
	})
	g.seq++
}

// Drain collects and removes everything recorded since Attach (or the
// previous Drain), returning the events ascending by Seq and the number of
// events the rings overwrote during the batch. The sequence counter and
// clock keep running, so successive batches stay globally ordered — this is
// the shipping primitive of the distributed workers, which drain after
// every task report. Not safe concurrently with Emit; callers drain from
// the same goroutine that records (the worker loop is serial).
func (r *Recorder) Drain() ([]Event, uint64) {
	if len(r.rings) == 0 {
		return nil, 0
	}
	var evs []Event
	var dropped uint64
	for i := range r.rings {
		dropped += r.rings[i].dropped()
		evs = r.rings[i].collect(evs)
		r.rings[i].reset()
	}
	sortEventsBySeq(evs)
	return evs, dropped
}

// DroppedTotal sums the rings' current overwrite counts without touching
// the recorded events — the live ring-drop reading a metrics scrape
// exposes while a run is still recording. Safe concurrently with Emit.
func (r *Recorder) DroppedTotal() uint64 {
	var n uint64
	for i := range r.rings {
		n += r.rings[i].dropped()
	}
	return n
}

// StealEvent implements the scheduler probe (core.Probe): a successful
// steal by thief from victim's queues.
func (r *Recorder) StealEvent(thief, victim int, task uint64) {
	r.Emit(thief, EvSteal, task, uint64(victim))
}

// RenameEvent implements the dependence-tracker probe: task received a
// fresh renamed instance instead of WAR/WAW edges. Fired under a shard
// lock from whatever goroutine is submitting, so it carries no lane.
func (r *Recorder) RenameEvent(task uint64) { r.Emit(-1, EvRename, task, 0) }

// WritebackEvent implements the dependence-tracker probe: a drained chain
// wrote its last good instance back onto canonical storage.
func (r *Recorder) WritebackEvent(task uint64) { r.Emit(-1, EvWriteback, task, 0) }
