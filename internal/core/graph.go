package core

import (
	"sync"
	"sync/atomic"
)

// drec is the dependence record of one tracked object: the task that last
// (program-order) writes it, and the tasks that read it or commutatively
// updated it since that write.
type drec struct {
	lastWriter *Task
	readers    []*Task
	commuters  []*Task
	// pinned marks records interned by Register: a registered Datum holds a
	// direct pointer here, so Forget must reset the record in place instead
	// of dropping it from the shard map (a fresh map record would diverge
	// from the handle's).
	pinned bool
	// chain, when non-nil, makes the record renameable (see rename.go): the
	// accessor lists above are then unused — the chain's current version
	// carries them — and every access routes through wireChained. noRename
	// records an opt-out issued before any chain existed, so it survives
	// regardless of which handle later enables renaming.
	chain    *verChain
	noRename bool
}

// GraphStats counts dependence activity, for tests, tracing, and the
// benchmark harness.
type GraphStats struct {
	Submitted uint64
	Finished  uint64
	Edges     uint64 // dependence edges that actually delayed a task
	Inlined   uint64 // tasks executed inline (If(false) clause)
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

// gshard is one shard of the dependence tracker: the datum and array-region
// records of every key hashing here, guarded by the shard mutex.
type gshard struct {
	mu      sync.Mutex
	datums  map[any]*drec
	regions map[any]*regionDatum // array-section dependences, by base
	_       [40]byte             // keep shard locks off each other's cache lines
}

// Datum is a pre-registered dependence key: the shard index and dependence
// record are resolved once at registration, so submissions using the handle
// skip the per-access interface hash and shard map lookup entirely. Obtain
// one with Graph.Register (exact keys) or Graph.RegisterRegion (array
// sections); handles are valid for the lifetime of the graph and safe for
// concurrent use. Mixing handle-based and raw-key accesses to the same key
// is safe — both resolve to the same record.
type Datum struct {
	// Key is the dependence key the handle stands for (a Region for
	// region handles); it is what traces, TaskwaitOn, and the simulated
	// memory model see.
	Key    any
	owner  *Graph // the graph whose records this handle caches
	shard  uint32
	rec    *drec        // exact-key record (nil for region handles)
	rd     *regionDatum // region record (nil for exact-key handles)
	region Region
	// chain is the handle's version chain once EnableRenaming ran (set
	// under the shard lock; also reachable through rec.chain / the region
	// record's span-chain table, which is what the submit path consults).
	chain *verChain
}

// Owner returns the graph this handle was registered on.
func (d *Datum) Owner() *Graph { return d.owner }

// Shard returns the dependence shard the handle's key hashes to (its
// affinity home, see Policy.HomeLane).
func (d *Datum) Shard() uint32 { return d.shard }

// IsRegion reports whether the handle names an array section.
func (d *Datum) IsRegion() bool { return d.rd != nil }

// Region returns the array section a region handle stands for (zero Region
// for exact-key handles).
func (d *Datum) Region() Region { return d.region }

// Graph tracks dataflow dependences between tasks. It is safe for
// concurrent use: per-datum records live in key-hashed shards with
// per-shard locks, Submit two-phase-locks the (few) shards a task's
// accesses hash to in ascending order, and Finish releases successors with
// a per-task lock plus atomic predecessor counts — never touching the
// shards. The simulator drives the same code serialized, where every lock
// is uncontended.
type Graph struct {
	shards [numShards]gshard

	// Renaming policy (ConfigureRenaming): written once before the first
	// submission, read under shard locks afterwards.
	renameOn  bool
	renameCap int

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
	stInlined         atomic.Uint64
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
	g := &Graph{renameCap: DefaultMaxVersions}
	for i := range g.shards {
		g.shards[i].datums = make(map[any]*drec)
	}
	return g
}

// Stats returns a snapshot of the graph counters.
func (g *Graph) Stats() GraphStats {
	return GraphStats{
		Submitted:       g.nextID.Load(),
		Finished:        g.stFinished.Load(),
		Edges:           g.stEdges.Load(),
		Inlined:         g.stInlined.Load(),
		Failed:          g.stFailed.Load(),
		Skipped:         g.stSkipped.Load(),
		Renamed:         g.stRenamed.Load(),
		RenameFallbacks: g.stRenameFallbacks.Load(),
		Writebacks:      g.stWritebacks.Load(),
	}
}

// Register interns key's dependence record and returns a handle that caches
// the shard index and record pointer, taking interface hashing and the map
// lookup off the submit path for every later access through the handle.
func (g *Graph) Register(key any) *Datum {
	si := shardIndex(key)
	sh := &g.shards[si]
	sh.mu.Lock()
	d := sh.datums[key]
	if d == nil {
		d = &drec{}
		sh.datums[key] = d
	}
	d.pinned = true
	sh.mu.Unlock()
	return &Datum{Key: key, owner: g, shard: si, rec: d}
}

// RegisterRegion interns the array-section record of base and returns a
// handle for the section [lo, hi). All sections of one base share a record;
// distinct handles over the same base still conflict only where their spans
// overlap.
func (g *Graph) RegisterRegion(base any, lo, hi int64) *Datum {
	r := Region{Base: base, Lo: lo, Hi: hi}
	si := shardIndex(base)
	sh := &g.shards[si]
	sh.mu.Lock()
	rd := sh.regionRec(base)
	rd.pinned = true
	sh.mu.Unlock()
	return &Datum{Key: r, owner: g, shard: si, rd: rd, region: r}
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

	// Two-phase locking: take every shard this task's keys hash to, in
	// ascending order. Holding them all for the whole wiring step makes
	// the submission atomic against other submitters sharing any datum,
	// so cross-datum edge direction stays consistent (no A→B on one datum
	// and B→A on another — which could deadlock the graph).
	var shardIdx [8]uint32
	shards := dedupeShards(collectShards(shardIdx[:0], t))
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

// collectShards appends the shard index of each of t's accesses to dst.
func collectShards(dst []uint32, t *Task) []uint32 {
	for i := range t.Accesses {
		if d := t.Accesses[i].Datum; d != nil {
			dst = append(dst, d.shard)
		} else {
			dst = append(dst, shardIndex(t.Accesses[i].Key))
		}
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
// with every shard t's accesses hash to already locked.
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
		// Handle-backed accesses resolve to their pre-interned record with
		// no interface hash or map lookup — this is the Datum fast path.
		// A handle registered on a different graph (a cross-runtime mix-up)
		// must not inject that graph's records here: its cached shard index
		// and span are still valid (shardIndex is a pure function of the
		// key), but the record pointers are not, so it resolves against
		// this graph's maps like a raw key.
		h := a.Datum
		if h != nil && h.rd != nil {
			rd := h.rd
			if h.owner != g {
				rd = g.shards[h.shard].regionRec(h.region.Base)
			}
			rd.submit(g, t, a, h.region, addPred)
			continue
		}
		if h != nil && h.owner == g {
			g.wireRecord(h.rec, t, a.Mode, addPred)
			continue
		}
		sh := &g.shards[shardIndex(a.Key)]
		d := sh.datums[a.Key]
		if d == nil {
			d = &drec{}
			sh.datums[a.Key] = d
		}
		g.wireRecord(d, t, a.Mode, addPred)
	}
}

// wireRecord wires one exact-key access: renameable records route through
// the version chain (rename.go), plain records through wireExact. Called
// with the owning shard lock held.
func (g *Graph) wireRecord(d *drec, t *Task, mode Mode, addPred func(*Task)) {
	if d.chain != nil {
		g.wireChained(d.chain, t, mode, addPred)
		return
	}
	wireExact(d, t, mode, addPred)
}

// wireExact wires the dependence edges of one exact-key access against the
// datum's record and updates it. Called with the owning shard lock held.
func wireExact(d *drec, t *Task, mode Mode, addPred func(*Task)) {
	switch mode {
	case In:
		addPred(d.lastWriter)
		for _, c := range d.commuters {
			addPred(c) // commutative updaters may write: RAW
		}
		d.readers = append(d.readers, t)
	case Commutative:
		addPred(d.lastWriter)
		for _, r := range d.readers {
			addPred(r) // WAR against plain readers
		}
		d.commuters = append(d.commuters, t)
	case Out, InOut:
		addPred(d.lastWriter)
		for _, r := range d.readers {
			addPred(r)
		}
		for _, c := range d.commuters {
			addPred(c)
		}
		d.lastWriter = t
		// Truncate rather than drop: an InOut chain reuses the one-element
		// backing array for every link instead of allocating it anew.
		clear(d.readers)
		d.readers = d.readers[:0]
		d.commuters = nil
		if mode == InOut {
			d.readers = append(d.readers, t)
		}
	}
}

// MarkRunning flags t as dispatched on the given worker.
func (g *Graph) MarkRunning(t *Task, worker int) {
	t.Worker = worker
	atomic.StoreInt32(&t.state, stateRunning)
}

// Finish completes t with the given outcome: records the error, closes the
// done channel if one was handed out, credits its parent context, propagates
// a non-nil error to every wired successor (first error wins — the
// skip-release path the executor's failure policy consults at dispatch), and
// returns the successors that became ready. The caller enqueues them. Safe
// concurrently with Submits wiring edges from t — the per-task succ lock
// decides each edge race, and the atomic npred decrement means exactly one
// finisher (or the submitter) releases each successor.
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
	if t.bindings != nil {
		g.releaseBindings(t, err)
	}
	succs, done := t.takeSuccsAndFinish()
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

// CountInlined records a task executed inline (If(false)); it never enters
// the graph.
func (g *Graph) CountInlined() { g.stInlined.Add(1) }

// CountSkipped records a task the executor released without running its
// body (failure policy or cancellation).
func (g *Graph) CountSkipped() { g.stSkipped.Add(1) }

// LastWriter returns the unfinished task that is the current program-order
// last writer of key, or nil when the datum is untracked or its writer
// already finished. This is the `taskwait on` lookup.
func (g *Graph) LastWriter(key any) *Task {
	sh := &g.shards[shardIndex(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	d := sh.datums[key]
	if d == nil {
		return nil
	}
	lw := d.lastWriter
	if d.chain != nil {
		lw = d.chain.cur.lastWriter
	}
	if lw == nil || lw.Finished() {
		return nil
	}
	return lw
}

// Forget drops the dependence records of key (both the exact-key datum and
// any array-section records based at key). Optional hygiene for
// long-running programs cycling through many distinct data objects.
// Records interned by Register stay alive (handles keep pointing at them)
// but are reset in place, so handle-based and raw-key accesses never
// diverge onto different records.
func (g *Graph) Forget(key any) {
	sh := &g.shards[shardIndex(key)]
	sh.mu.Lock()
	if d := sh.datums[key]; d != nil {
		switch {
		case d.chain != nil:
			// Chained records keep their chain (handles point at it); only
			// the accessor history is dropped. Call when the datum is idle —
			// live renamed instances are discarded without writeback.
			d.chain.collapse()
		case d.pinned:
			*d = drec{pinned: true}
		default:
			delete(sh.datums, key)
		}
	}
	if rd := sh.regions[key]; rd != nil {
		if rd.pinned {
			rd.segs = nil
		} else {
			delete(sh.regions, key)
		}
	}
	sh.mu.Unlock()
}

// Release drops a registered handle's dependence records from the graph
// entirely, map entries included, so a request-scoped arena can recycle
// wholesale at session close. Unlike Forget, the record is NOT kept alive
// for the handle: the handle — and any other handle or raw-key access over
// the same key — must not be used afterwards. Call only when every task
// that touched the key has finished; live renamed instances are discarded
// without writeback.
func (g *Graph) Release(d *Datum) {
	if d == nil || d.owner != g {
		return
	}
	sh := &g.shards[d.shard]
	sh.mu.Lock()
	if d.rd != nil {
		if cur := sh.regions[d.region.Base]; cur == d.rd {
			delete(sh.regions, d.region.Base)
		}
	} else if cur := sh.datums[d.Key]; cur == d.rec {
		if d.rec.chain != nil {
			d.rec.chain.collapse()
		}
		delete(sh.datums, d.Key)
	}
	sh.mu.Unlock()
}
