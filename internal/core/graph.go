package core

import (
	"slices"
	"sync"
	"sync/atomic"
)

// GraphStats counts dependence activity, for tests, tracing, and the
// benchmark harness.
type GraphStats struct {
	Submitted uint64
	Finished  uint64
	Edges     uint64 // dependence edges that actually delayed a task
	Failed    uint64 // tasks finished with a non-nil error (incl. skipped)
	Skipped   uint64 // tasks released without running (failure policy / cancel)
	// Renaming activity (see rename.go): writes that got a fresh instance
	// instead of WAR/WAW edges, writes that stalled only because the
	// in-flight version cap was full, and instances copied back onto
	// canonical storage at chain drain.
	Renamed         uint64
	RenameFallbacks uint64
	Writebacks      uint64
}

// Datum is the dependence record of one datum, interned once per graph: every
// access to the datum — through a handle from Register, or by its raw key,
// which Submit interns — resolves to this one object. Its shard, the lock
// stripe that guards it, comes from the order in which the graph first saw
// the key, never from the key's value or address, so it repeats exactly from
// run to run. Datums are safe for concurrent use and valid until the domain
// that interned them is released (see Graph.Release); those interned for no
// scoped domain live as long as the graph.
type Datum struct {
	// Key is the dependence key the datum stands for; it is what traces,
	// TaskwaitOn, and the simulated memory model see.
	Key   any
	owner *Graph
	shard uint32

	// The record, guarded by the shard lock.
	accessors
	// chain, when non-nil, makes the datum renameable (see rename.go): the
	// accessors above are then unused — the chain's current version
	// carries them — and every access routes through wireChained.
	chain *verChain
}

// accessors is the dependence record of a datum, or of one instance of a
// renameable datum: the task that last (program-order) wrote it, and the
// tasks that read it or commutatively updated it since that write. The
// record holds a reference on each task it names (Task.Hold) — one per
// slot, except that a reader which is also the last writer (an InOut)
// shares the writer's — so a finished task stays readable, and a failed one
// still hands its error to a later reader, until the record lets go of it.
// The methods below are the only writers of the slots, so the counting
// lives here. Guarded by the owning shard lock.
type accessors struct {
	lastWriter *Task
	readers    []*Task
	commuters  []*Task
}

// wire adds the dependence edges of t's access in mode against the record,
// through addPred, and records t.
func (a *accessors) wire(t *Task, mode Mode, addPred func(*Task)) {
	switch mode {
	case In:
		addPred(a.lastWriter)
		for _, c := range a.commuters {
			addPred(c) // commutative updaters may write: RAW
		}
		a.addReader(t)
	case Commutative:
		addPred(a.lastWriter)
		for _, r := range a.readers {
			addPred(r) // WAR against plain readers
		}
		a.addCommuter(t)
	case Out, InOut:
		addPred(a.lastWriter)
		for _, r := range a.readers {
			addPred(r)
		}
		for _, c := range a.commuters {
			addPred(c)
		}
		a.setWriter(t)
		if mode == InOut {
			a.addReader(t)
		}
	}
}

// setWriter makes t the last writer, evicting the previous one and every
// reader and commuter since it.
func (a *accessors) setWriter(t *Task) {
	t.Hold()
	a.clear()
	a.lastWriter = t
}

func (a *accessors) addReader(t *Task) {
	if t != a.lastWriter {
		t.Hold()
	}
	a.readers = append(a.readers, t)
}

func (a *accessors) addCommuter(t *Task) {
	t.Hold()
	a.commuters = append(a.commuters, t)
}

// clear empties the record. The lists are truncated, not dropped: an InOut
// chain reuses the one-element backing array for every link instead of
// allocating it anew.
func (a *accessors) clear() {
	w := a.lastWriter
	for _, r := range a.readers {
		if r != w {
			r.Drop()
		}
	}
	for _, c := range a.commuters {
		c.Drop()
	}
	clear(a.readers)
	clear(a.commuters)
	a.lastWriter, a.readers, a.commuters = nil, a.readers[:0], a.commuters[:0]
	if w != nil {
		w.Drop()
	}
}

// take moves the record out, references and all, leaving it empty.
func (a *accessors) take() accessors {
	old := *a
	*a = accessors{}
	return old
}

// Owner returns the graph this datum was interned on.
func (d *Datum) Owner() *Graph { return d.owner }

// Graph tracks dataflow dependences between tasks. It is safe for
// concurrent use. Every key is interned once into a Datum (one map, under
// one mutex, taken at registration and for the raw-key accesses of a
// submission — never while a shard lock is held). Datum records are guarded
// by per-shard locks: Submit two-phase-locks the (few) shards a task's
// datums are homed on in ascending order, and Finish releases successors
// with a per-task lock plus atomic predecessor counts — never touching the
// shards. The simulator drives the same code serialized, where every lock
// is uncontended.
type Graph struct {
	shards [numShards]gshard

	// The intern table: every key's datum, and the count of datums ever
	// interned, whose value at a datum's creation homes it (homeShard).
	mu       sync.Mutex
	keys     map[any]*Datum
	ordinals uint64

	// Renaming policy (ConfigureRenaming): written once before the first
	// submission, read under shard locks afterwards.
	renameOn bool

	// probe, when non-nil, receives rename/writeback events (SetProbe;
	// written once before the first submission).
	probe Probe

	// The counters are split by writer so a submitter and a finisher never
	// read-modify-write the same cache line: the first group is written on
	// the submit side only, the second on the dispatch/finish side only.
	// Submitted and Unfinished are derived (nextID, nextID − stFinished).
	_                 [64]byte
	nextID            atomic.Uint64 // also the submitted count: every ID is one Submit
	stEdges           atomic.Uint64
	stRenamed         atomic.Uint64
	stRenameFallbacks atomic.Uint64
	_                 [64]byte
	stFinished        atomic.Uint64
	stFailed          atomic.Uint64
	stSkipped         atomic.Uint64
	stWritebacks      atomic.Uint64
}

// NewGraph returns an empty dependence graph.
func NewGraph() *Graph {
	return &Graph{keys: make(map[any]*Datum)}
}

// Stats returns a snapshot of the graph counters.
func (g *Graph) Stats() GraphStats {
	return GraphStats{
		Submitted:       g.nextID.Load(),
		Finished:        g.stFinished.Load(),
		Edges:           g.stEdges.Load(),
		Failed:          g.stFailed.Load(),
		Skipped:         g.stSkipped.Load(),
		Renamed:         g.stRenamed.Load(),
		RenameFallbacks: g.stRenameFallbacks.Load(),
		Writebacks:      g.stWritebacks.Load(),
	}
}

// Register interns key and returns its datum: the same pointer for every
// call with an equal key, until a Release drops it. A datum created here
// belongs to no domain and lives as long as the graph.
func (g *Graph) Register(key any) *Datum { return g.Intern(key, nil) }

// Intern is Register on behalf of a domain: a datum it creates belongs to
// dom, and Release(dom) drops it, when dom is scoped (Domain.Scoped). A key
// that is already interned keeps its datum and its owner.
func (g *Graph) Intern(key any, dom *Domain) *Datum {
	g.mu.Lock()
	d := g.intern(key, dom)
	g.mu.Unlock()
	return d
}

// intern is Intern with g.mu held.
func (g *Graph) intern(key any, dom *Domain) *Datum {
	d := g.keys[key]
	if d == nil {
		g.ordinals++
		d = &Datum{Key: key, owner: g, shard: homeShard(g.ordinals)}
		g.keys[key] = d
		if dom != nil && dom.Scoped {
			dom.datums = append(dom.datums, d)
		}
	}
	return d
}

// Unfinished returns the number of in-flight tasks across all contexts.
// Finished is read first, so under concurrency the estimate only errs high:
// zero means the graph really was drained at that instant.
func (g *Graph) Unfinished() int64 {
	fin := g.stFinished.Load()
	return int64(g.nextID.Load() - fin)
}

// Submit registers t's accesses, wiring dependence edges from unfinished
// predecessors, and reports whether the task is immediately ready. The
// caller must enqueue ready tasks itself (scheduling is the executor's
// concern); a task whose last predecessor finishes mid-submission is
// instead returned by that predecessor's Finish. The task's parent context,
// if any, is charged one pending child.
func (g *Graph) Submit(t *Task) (ready bool) {
	g.initTask(t)

	// Two-phase locking: take the shard of every datum this task accesses,
	// in ascending order. Holding them all for the whole wiring step makes
	// the submission atomic against other submitters sharing any datum,
	// so cross-datum edge direction stays consistent (no A→B on one datum
	// and B→A on another — which could deadlock the graph).
	var shardIdx [8]uint32
	shards := dedupeShards(g.resolve(shardIdx[:0], t))
	for _, si := range shards {
		g.shards[si].mu.Lock()
	}
	g.wireTask(t)
	for i := len(shards) - 1; i >= 0; i-- {
		g.shards[shards[i]].mu.Unlock()
	}

	// Drop the submission guard. Whoever takes npred to zero — this
	// decrement, or a predecessor's Finish racing it — owns the release.
	if atomic.AddInt32(&t.npred, -1) == 0 {
		atomic.StoreInt32(&t.state, stateReady)
		return true
	}
	return false
}

// initTask assigns t its ID (which also counts it as submitted) and charges
// the parent context, leaving npred at 1 (the submission guard).
func (g *Graph) initTask(t *Task) {
	t.ID = g.nextID.Add(1)
	// Submission guard: npred starts at 1 so concurrently finishing
	// predecessors can never release t before its edges are fully wired.
	atomic.StoreInt32(&t.npred, 1)
	if t.Preds == nil {
		t.Preds = t.predBuf[:0]
	}
	if t.Parent != nil {
		t.Parent.add(1)
	}
}

// resolve gives every access of t this graph's datum and appends the
// datum's shard to dst. Raw keys — and handles interned on another graph,
// which resolve by their key — are interned here, by t's domain, under one
// intern-lock acquisition for the whole task and before any shard lock is
// taken.
func (g *Graph) resolve(dst []uint32, t *Task) []uint32 {
	locked := false
	for i := range t.Accesses {
		a := &t.Accesses[i]
		if a.Datum == nil || a.Datum.owner != g {
			if !locked {
				g.mu.Lock()
				locked = true
			}
			a.Datum = g.intern(a.Key, t.Domain)
		}
		dst = append(dst, a.Datum.shard)
	}
	if locked {
		g.mu.Unlock()
	}
	return dst
}

// dedupeShards returns the distinct shard indices in ascending order (the
// lock order), rewriting the input in place. Shard indices fit a uint64
// bitmap (see the compile-time guard), so this is one linear pass plus a
// bounded sweep — allocation-free on the submit hot path.
func dedupeShards(shards []uint32) []uint32 {
	if len(shards) < 2 {
		return shards
	}
	var mask uint64
	for _, si := range shards {
		mask |= 1 << si
	}
	out := shards[:0]
	for si := uint32(0); si < numShards; si++ {
		if mask&(1<<si) != 0 {
			out = append(out, si)
		}
	}
	return out
}

// The bitmap in dedupeShards requires numShards <= 64.
var _ [64 - numShards]struct{}

// wireTask wires t's dependence edges from unfinished predecessors. Called
// with the shard of every datum t accesses already locked.
//
// Edges are deduplicated so a task sharing several data with one predecessor
// counts it once. The dedup set is a linear-scanned slice over a stack
// backing array: predecessor counts are small, and a per-submit map
// allocation is hot-path cost.
func (g *Graph) wireTask(t *Task) {
	var seenArr [16]*Task
	seen := seenArr[:0]
	addPred := func(p *Task) {
		if p == nil || p == t {
			return
		}
		for _, q := range seen {
			if q == p {
				return
			}
		}
		seen = append(seen, p)
		// Charge npred BEFORE publishing the edge: once t is in p.succs, a
		// concurrent Finish(p) may decrement at any moment, and the charge
		// must already be there or the decrement would eat the submission
		// guard and release t twice. The rollback can never hit zero — the
		// guard itself still holds npred above the transient charge.
		atomic.AddInt32(&t.npred, 1)
		if !p.addSucc(t) {
			atomic.AddInt32(&t.npred, -1)
			// p already finished: no edge to wait on, but its recorded
			// failure still reaches t — otherwise skip-vs-run would depend
			// on whether the predecessor finished a microsecond before or
			// after this submission. (addSucc observed the finished state
			// under p's succ lock, so p's outcome is visible here.)
			// Failures stay inside their domain: a cross-domain edge
			// orders execution but never imports the foreign error.
			if perr := p.Err(); perr != nil && sameDomain(p, t) {
				t.noteUpstream(perr)
			}
			return
		}
		t.Preds = append(t.Preds, p.ID)
		g.stEdges.Add(1)
	}

	for _, a := range t.Accesses {
		if d := a.Datum; d.chain != nil {
			g.wireChained(d.chain, t, a.Mode, addPred)
		} else {
			d.wire(t, a.Mode, addPred)
		}
	}
}

// MarkRunning flags t as dispatched on the given worker.
func (g *Graph) MarkRunning(t *Task, worker int) {
	t.Worker = worker
	atomic.StoreInt32(&t.state, stateRunning)
}

// Finish completes t with the given outcome: records the error, settles the
// owner, closes the done channel if one was handed out, credits its parent
// context, propagates a non-nil error to every wired successor (first error
// wins — the skip-release path the executor's failure policy consults at
// dispatch), and returns the successors that became ready. The caller
// enqueues them. Safe concurrently with Submits wiring edges from t — the
// per-task succ lock decides each edge race, and the atomic npred decrement
// means exactly one finisher (or the submitter) releases each successor.
//
// The result is t's detached successor list compacted in place — for a
// single successor, the slot inside t itself. Consume it at once, and clear
// it afterwards if t may stay reachable (a retained future), or t would pin
// every task released behind it.
func (g *Graph) Finish(t *Task, err error) (newlyReady []*Task) {
	t.outcome = err
	// Release version bindings (and run any resulting writeback) BEFORE
	// successors and counters drop: a dependent released below — or a
	// taskwaiter that observes the counters — must also observe the
	// written-back canonical value. Never holds the succ lock, so the
	// shard → task lock order of Submit is preserved.
	if len(t.bindings) > 0 {
		g.releaseBindings(t, err)
	}
	succs, done := t.takeSuccsAndFinish(err)
	if done != nil {
		close(done)
	}
	if err != nil {
		g.stFailed.Add(1)
		if t.Parent != nil {
			t.Parent.NoteErr(err)
		}
	}
	g.stFinished.Add(1)
	if t.Domain != nil {
		t.Domain.taskFinished(err, t.Skipped())
	}
	// The parent context drops last: whoever a taskwait lets go finds the
	// graph and domain counters above already settled.
	if t.Parent != nil {
		t.Parent.add(-1)
	}
	newlyReady = succs[:0]
	for _, s := range succs {
		if err != nil && sameDomain(t, s) {
			// Publish the failure before dropping the predecessor count, so
			// whoever dispatches s observes it. Cross-domain edges order
			// execution but never carry failures: one session's error
			// cascade must not skip another session's tasks.
			s.noteUpstream(err)
		}
		if atomic.AddInt32(&s.npred, -1) == 0 {
			atomic.StoreInt32(&s.state, stateReady)
			newlyReady = append(newlyReady, s)
		}
	}
	clear(succs[len(newlyReady):]) // successors still waiting on someone else
	return newlyReady
}

// CountSkipped records a task the executor released without running its
// body (failure policy or cancellation).
func (g *Graph) CountSkipped() { g.stSkipped.Add(1) }

// Writers returns the unfinished tasks a `taskwait on(key)` must wait for:
// the datum's program-order last writer, or — for a renameable datum —
// every unfinished accessor of every live instance, so that waiting flushes
// the rename and the canonical storage is current on return. Each returned
// task is held (see Hold) for the waiter, which drops it when done waiting.
func (g *Graph) Writers(key any) []*Task {
	g.mu.Lock()
	d := g.keys[key]
	g.mu.Unlock()
	if d == nil {
		return nil
	}
	sh := &g.shards[d.shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if d.chain == nil {
		if w := d.lastWriter; w != nil && !w.Finished() {
			w.Hold()
			return []*Task{w}
		}
		return nil
	}
	var out []*Task
	collect := func(t *Task) {
		if t != nil && !t.Finished() && !slices.Contains(out, t) {
			t.Hold()
			out = append(out, t)
		}
	}
	d.chain.canonical.addAccessors(collect)
	for _, v := range d.chain.renamed {
		v.addAccessors(collect)
	}
	return out
}

// Release drops every datum interned on behalf of dom (see Intern) from the
// graph, so a request-scoped arena recycles wholesale when its session
// closes: a later access to one of the keys interns a fresh datum with no
// history. Datums dom did not create keep their records. The released
// datums' accessor history is cleared, so a retained handle pins no task,
// and live renamed instances are discarded without writeback: call only
// once every task that touched them has finished, and use none of them
// afterwards.
func (g *Graph) Release(dom *Domain) {
	g.mu.Lock()
	ds := dom.datums
	dom.datums = nil
	for _, d := range ds {
		delete(g.keys, d.Key)
	}
	g.mu.Unlock()
	for _, d := range ds {
		g.forget(d)
	}
}

// DropHistory empties every datum's accessor history, letting go of the
// finished tasks the slots still hold. Call only once the graph has drained
// for good (the runtime's Shutdown); a datum keeps its identity, so a later
// access interns nothing new — it just orders after nothing.
func (g *Graph) DropHistory() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, d := range g.keys {
		g.forget(d)
	}
}

// forget empties d's accessor history and discards its live renamed
// instances without writeback, under d's shard lock.
func (g *Graph) forget(d *Datum) {
	sh := &g.shards[d.shard]
	sh.mu.Lock()
	if d.chain != nil {
		d.chain.collapse()
	}
	d.clear()
	sh.mu.Unlock()
}

// SoleDependents returns the successors of t whose only unfinished
// predecessor is t itself, skipping any that already carry an upstream
// failure. Call it while t is still unfinished: t then holds exactly one
// count in each successor's predecessor counter until Finish, and
// submission wiring only ever inflates the counter (the wiring guard),
// so a successor observed at NPred()==1 is fully wired with t as its
// sole gate — finishing t is all that stands between it and readiness.
//
// This is the chain-eligibility query of the distributed coordinator: a
// sole dependent can be speculatively dispatched behind t to the same
// worker (a task chain) without any scheduling decision left to make.
// The engine only answers the structural question; what to do with the
// answer stays in the coordinator.
func (g *Graph) SoleDependents(t *Task) []*Task {
	var out []*Task
	for _, s := range t.Succs() {
		if s.NPred() == 1 && s.Upstream() == nil {
			out = append(out, s)
		}
	}
	return out
}

// Records reports the live dependence records: the datums interned and not
// released. Session arenas release their datums at Close, so a steady-state
// server's count returns to the pre-churn baseline; the session-churn soak
// watches exactly this number for arena leaks.
func (g *Graph) Records() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.keys)
}
