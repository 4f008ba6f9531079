package core

// Dependence renaming (data versioning), the StarSs/OmpSs mechanism that
// removes false dependences: a writer blocked only by WAR/WAW edges gets a
// fresh private instance of the datum instead of stalling — pending readers
// keep the old instance, the writer proceeds immediately on the new one,
// and the latest instance is copied back to the datum's canonical storage
// once every in-flight accessor has drained.
//
// The runtime cannot redirect the memory a task body captures, so renaming
// is opt-in per datum: EnableRenaming supplies the canonical payload, an
// allocator for fresh instances, and a payload copier, and bodies resolve
// the instance bound to their access through Datum.PayloadFor (surfaced as
// TC.Data in the public API). Accesses to a datum that never enabled
// renaming are untouched — zero cost on that path.
//
// All chain state is guarded by the owning dependence shard's mutex:
// version binding happens inside Submit's wiring step (shard already
// locked), and release happens at Finish, which takes the shard lock per
// binding — never while holding a task's succ lock, so the shard → task
// lock order of Submit is preserved. Both backends drive this same code,
// so native and simulated runs observe identical rename decisions for
// identical submission interleavings.

// version is one instance of a renameable datum: a payload plus the
// dependence record of the tasks accessing exactly this instance. refs
// counts submitted-but-unfinished accessors; the record holds the same tasks
// (it is never pruned before the version drains, and addPred skips
// finished entries).
type version struct {
	payload any
	// vid is the chain-unique version number of the instance's current
	// content (1 = the canonical instance's initial value). A renamed
	// instance keeps one vid for its lifetime; the canonical instance's vid
	// advances on every in-place write and on writeback (it adopts the vid
	// of the instance copied onto it), so equal (datum, vid) pairs always
	// name bit-identical content — the invariant the distributed backend's
	// per-worker version caches key on.
	vid uint64
	accessors
	refs int32
	// poisoned records that the version's program-order last writer
	// finished with an error (including skip-release): its payload is
	// undefined and must never be written back to canonical storage.
	poisoned bool
}

// anyUnfinished reports whether any accessor of the version other than
// `self` is still in flight — the "would this access stall?" probe behind
// the rename decision (a task never stalls on its own earlier access, so
// self is excluded, matching addPred's self-skip).
func (v *version) anyUnfinished(self *Task) bool {
	if w := v.lastWriter; w != nil && w != self && !w.Finished() {
		return true
	}
	return anyUnfinishedIn(v.readers, self) || anyUnfinishedIn(v.commuters, self)
}

func (v *version) anyUnfinishedReader(self *Task) bool { return anyUnfinishedIn(v.readers, self) }

func anyUnfinishedIn(ts []*Task, self *Task) bool {
	for _, t := range ts {
		if t != self && !t.Finished() {
			return true
		}
	}
	return false
}

// addAccessors feeds every accessor of the version to addPred — the
// "everything live on this instance" set a `taskwait on` waits for (see
// Graph.Writers).
func (v *version) addAccessors(addPred func(*Task)) {
	addPred(v.lastWriter)
	for _, t := range v.readers {
		addPred(t)
	}
	for _, t := range v.commuters {
		addPred(t)
	}
}

// verChain is the per-datum version chain: the canonical instance (the
// user's own storage, version 0) plus the renamed instances currently in
// flight. Guarded by the owning shard's mutex.
type verChain struct {
	shard     uint32
	canonical *version
	cur       *version   // instance new accesses bind to (== canonical when no rename is live)
	renamed   []*version // live renamed instances, creation order (cur is the last)
	alloc     func() any
	copyFn    func(dst, src any)
	pool      []any  // reclaimed payloads, reused before calling alloc
	nextVID   uint64 // next version number to assign (see version.vid)
}

// newVersion takes a payload from the pool (or allocates one) and appends a
// fresh live version. Pooled payloads carry stale bytes; that is sound
// because an Out writer overwrites the instance by contract and an InOut
// writer's copy-in overwrites it with its predecessor's value first.
func (ch *verChain) newVersion() *version {
	var p any
	if n := len(ch.pool); n > 0 {
		p = ch.pool[n-1]
		ch.pool[n-1] = nil
		ch.pool = ch.pool[:n-1]
	} else {
		p = ch.alloc()
	}
	v := &version{payload: p, vid: ch.nextVID}
	ch.nextVID++
	ch.renamed = append(ch.renamed, v)
	return v
}

// verBinding records that one task access observes (read) and/or produces
// (write) a specific instance of a chained datum. Bindings are appended at
// wiring time under the shard lock and released by Finish. needCopy marks a
// renamed InOut: the previous instance's value is copied into the new one
// lazily, on the body's first PayloadFor call (copied is touched only by
// the running body's goroutine).
type verBinding struct {
	chain    *verChain
	read     *version
	write    *version
	needCopy bool
	copied   bool
	// readVID/writeVID are the version numbers the access observes and
	// produces, captured at wiring time (never re-read from the live
	// version structs: an in-place write bumps the canonical vid at ITS
	// wiring, which must not relabel an earlier reader's bound content).
	// readVID is 0 for a pure Out; for an in-place InOut it names the
	// predecessor content in the same payload (read stays nil there).
	readVID  uint64
	writeVID uint64
}

// DefaultMaxVersions bounds the live renamed instances per datum: a write
// that would exceed it stalls on its WAR/WAW edges instead (counted as a
// rename fallback). Enough to keep several rounds of a reader/writer
// pipeline in flight, small enough that a runaway submitter cannot hold
// unbounded payload copies live.
const DefaultMaxVersions = 8

// ConfigureRenaming turns dependence renaming on or off for the whole
// graph. Call before any task is submitted (both backends do this at
// construction).
func (g *Graph) ConfigureRenaming(on bool) { g.renameOn = on }

// EnableRenaming makes the datum renameable: canonical is the
// instance behind the registered key (nil defaults to the key itself, the
// usual pointer-keyed case), alloc produces a fresh private instance, and
// cp copies one instance's value onto another (used for InOut copy-in and
// for the final writeback onto canonical). Task bodies must then access the
// datum through its bound instance (Datum.PayloadFor / TC.Data); renaming
// never fires for datums that skip this call.
func (d *Datum) EnableRenaming(canonical any, alloc func() any, cp func(dst, src any)) *Datum {
	if canonical == nil {
		canonical = d.Key
	}
	sh := &d.owner.shards[d.shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if d.chain != nil { // idempotent
		return d
	}
	ch := &verChain{shard: d.shard, alloc: alloc, copyFn: cp, nextVID: 2}
	// The datum's existing accessors become the canonical instance's: from
	// here on the chain's current version carries the lists.
	ch.canonical = &version{payload: canonical, vid: 1, accessors: d.take()}
	ch.cur = ch.canonical
	d.chain = ch
	return d
}

// PayloadFor resolves the instance of this datum that task t is bound to:
// the version its access was wired against (its private output instance
// for a renamed write — copied from the predecessor instance first for
// InOut), or the chain's canonical payload when t is nil (master thread) or
// carries no binding. For a datum without a chain it returns the key
// itself, so pointer-keyed code degrades to the raw pointer. Call from the
// bound task's own body only (the InOut copy-in is not synchronized against
// other callers).
func (d *Datum) PayloadFor(t *Task) any {
	ch := d.chain
	if ch == nil {
		return d.Key
	}
	if t != nil {
		var read *version
		for i := range t.bindings {
			b := &t.bindings[i]
			if b.chain != ch {
				continue
			}
			if b.write != nil {
				if b.needCopy && !b.copied {
					ch.copyFn(b.write.payload, b.read.payload)
					b.copied = true
				}
				return b.write.payload
			}
			if read == nil {
				read = b.read
			}
		}
		if read != nil {
			return read.payload
		}
	}
	return ch.canonical.payload
}

// shouldRename decides, under the shard lock, whether a write-mode access
// to a chained datum gets a fresh instance: only when the write would
// otherwise stall on a WAR/WAW edge (an unfinished reader for InOut — its
// RAW on the last writer is true and stays either way — or any unfinished
// accessor for Out), renaming is on, and the in-flight cap
// (DefaultMaxVersions) has room. The fallback path is always sound: the
// write joins the current instance with ordinary conservative edges.
func (g *Graph) shouldRename(ch *verChain, t *Task, mode Mode) bool {
	if !g.renameOn || ch.alloc == nil {
		return false
	}
	var conflict bool
	switch mode {
	case Out:
		conflict = ch.cur.anyUnfinished(t)
	case InOut:
		conflict = ch.cur.anyUnfinishedReader(t)
	}
	if !conflict {
		return false
	}
	if len(ch.renamed) >= DefaultMaxVersions {
		g.stRenameFallbacks.Add(1)
		return false
	}
	return true
}

// wireChained wires one access of t against a chained datum's current
// version, renaming write-mode accesses when shouldRename approves. Called
// with the owning shard lock held. Commutative updaters mutate the current
// instance in place and keep their ordinary edge semantics.
func (g *Graph) wireChained(ch *verChain, t *Task, mode Mode, addPred func(*Task)) {
	cur := ch.cur
	if (mode == Out || mode == InOut) && g.shouldRename(ch, t, mode) {
		nv := ch.newVersion()
		nv.setWriter(t)
		if mode == InOut {
			// The RAW on the previous instance's producers is true and
			// stays; only the WAR edges on its readers are broken — they
			// keep reading the old instance while this task writes the
			// new one (seeded by copy-in at first PayloadFor).
			addPred(cur.lastWriter)
			for _, c := range cur.commuters {
				addPred(c)
			}
			nv.addReader(t)
			t.bindRename(ch, cur, nv, true)
		} else {
			t.bindRename(ch, nil, nv, false)
		}
		ch.cur = nv
		g.stRenamed.Add(1)
		if g.probe != nil {
			g.probe.RenameEvent(t.ID)
		}
		return
	}
	// In place: the same edges and record as a datum without a chain.
	readVID := cur.vid
	cur.wire(t, mode, addPred)
	switch mode {
	case In, Commutative:
		t.bindRead(ch, cur)
	case Out, InOut:
		// The in-place write produces new content in the same payload: the
		// instance's version number advances so the new content gets a
		// fresh identity. An InOut still observes the predecessor content,
		// so its binding records the pre-bump vid as what it reads.
		if mode == Out {
			readVID = 0
		}
		cur.vid = ch.nextVID
		ch.nextVID++
		t.bindWrite(ch, cur, readVID)
	}
}

// releaseBindings drops t's holds on every instance it was bound to,
// recording the writer's outcome, reclaiming drained superseded instances,
// and — when the whole chain has drained with a renamed instance current —
// copying that instance back onto the canonical storage. Called by Finish
// BEFORE successors are released and counters dropped, so a dependent (or a
// taskwaiter) that observes t finished also observes the writeback.
func (g *Graph) releaseBindings(t *Task, err error) {
	for i := range t.bindings {
		b := &t.bindings[i]
		if b.chain == nil {
			continue // released below with an earlier same-chain binding
		}
		sh := &g.shards[b.chain.shard]
		sh.mu.Lock()
		// Release every binding of this chain under one lock acquisition
		// and sweep once (a task normally binds a chain once; a renamed
		// InOut or a duplicate declaration binds it twice).
		for j := i; j < len(t.bindings); j++ {
			bj := &t.bindings[j]
			if bj.chain != b.chain {
				continue
			}
			if bj.write != nil && bj.write.lastWriter == t {
				// Program order's last writer of the instance decides
				// whether its payload is defined. Writers on one instance
				// are mutually ordered (WAW edges are kept within a
				// version), so the last writer finishes last and its
				// verdict sticks.
				bj.write.poisoned = err != nil
			}
			if bj.read != nil {
				bj.read.refs--
			}
			if bj.write != nil && bj.write != bj.read {
				bj.write.refs--
			}
			if j > i {
				bj.chain = nil
			}
		}
		g.sweepChain(b.chain)
		sh.mu.Unlock()
	}
	clear(t.bindings)
	t.bindings = t.bindings[:0]
}

// sweepChain publishes and reclaims the drained prefix of the version
// list. Called with the owning shard lock held.
//
// Writeback is incremental: once the canonical instance and the oldest k
// renamed instances have fully drained, the newest *successfully written*
// instance among those k is copied onto the canonical storage — program
// order's last good value so far — and the whole prefix returns its
// payloads to the pool. Reclaiming only prefixes (never a drained
// instance whose older sibling is still live) is what preserves the last
// successful value when a later writer fails: its poisoned instance is
// skipped and the canonical keeps the newest good predecessor, not the
// pre-chain value. Memory stays bounded by the rename cap either way.
// The canonical-refs guard also makes the copy race-free: nothing bound
// to the canonical instance is still running when it is overwritten.
func (g *Graph) sweepChain(ch *verChain) {
	if ch.canonical.refs != 0 || len(ch.renamed) == 0 {
		return
	}
	n := 0
	for n < len(ch.renamed) && ch.renamed[n].refs == 0 {
		n++
	}
	if n == 0 {
		return
	}
	var best *version
	for _, v := range ch.renamed[:n] {
		if !v.poisoned {
			best = v
		}
	}
	if best != nil {
		ch.copyFn(ch.canonical.payload, best.payload)
		// The canonical content now IS that instance's content: adopting
		// its vid keeps the (datum, vid) → content mapping injective, so a
		// distributed worker that cached the renamed instance's bytes gets
		// a cache hit — not a stale read — when a later reader binds the
		// written-back canonical.
		ch.canonical.vid = best.vid
		g.stWritebacks.Add(1)
		if g.probe != nil {
			var wid uint64
			if best.lastWriter != nil {
				wid = best.lastWriter.ID
			}
			g.probe.WritebackEvent(wid)
		}
	}
	for _, v := range ch.renamed[:n] {
		ch.pool = append(ch.pool, v.payload)
		v.payload = nil
		v.clear()
	}
	ch.renamed = append(ch.renamed[:0], ch.renamed[n:]...)
	if len(ch.renamed) == 0 {
		// cur is always the newest instance, so an empty list means it
		// drained too: collapse back onto the canonical instance.
		ch.collapse()
	}
}

// VersionRef names one payload instance of a chained datum: a chain-unique
// version number plus the payload object carrying (or about to carry) that
// version's content. Equal (datum, Ver) pairs always denote bit-identical
// content, which is what makes the ref a sound cache key for a backend
// that migrates payloads out of this address space (internal/dist keys its
// per-worker byte caches on exactly this pair). The zero Ver means "no
// instance" — a pure Out binding observes nothing, a pure In produces
// nothing.
type VersionRef struct {
	Ver     uint64
	Payload any
}

// Valid reports whether the ref names an instance.
func (r VersionRef) Valid() bool { return r.Ver != 0 }

// Binding resolves the datum instances task t was wired against: read is
// what the task observes (its clause-bound input content), write what it
// produces. For an in-place write both refs share one payload — the read
// names the predecessor content that occupies it until the task's output
// lands. Zero refs mean no chain, no binding on this datum, or no access
// of that direction.
//
// Safe without locks once Submit(t) has returned and until t finishes:
// bindings and their captured vids are immutable in that window, and the
// payloads cannot be reclaimed while t holds version refs. Callers that
// import produced content into write.Payload must do so before calling
// Graph.Finish(t, ...) — Finish releases the refs and may immediately
// write the payload back onto canonical storage.
func (d *Datum) Binding(t *Task) (read, write VersionRef) {
	ch := d.chain
	if ch == nil || t == nil {
		return read, write
	}
	for i := range t.bindings {
		b := &t.bindings[i]
		if b.chain != ch {
			continue
		}
		if b.write != nil && !write.Valid() {
			write = VersionRef{Ver: b.writeVID, Payload: b.write.payload}
			if b.readVID != 0 && !read.Valid() {
				p := b.write.payload
				if b.read != nil {
					p = b.read.payload
				}
				read = VersionRef{Ver: b.readVID, Payload: p}
			}
		} else if b.read != nil && !read.Valid() {
			read = VersionRef{Ver: b.readVID, Payload: b.read.payload}
		}
	}
	return read, write
}

// Canonical returns the current canonical instance of a chained datum (the
// zero ref when renaming was never enabled). Call only from outside any
// task — e.g. the master thread after a taskwait — when no writer of the
// datum is in flight; the writeback-on-drain contract then guarantees the
// payload holds the program-order last successful value.
func (d *Datum) Canonical() VersionRef {
	sh := &d.owner.shards[d.shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if d.chain == nil {
		return VersionRef{}
	}
	c := d.chain.canonical
	return VersionRef{Ver: c.vid, Payload: c.payload}
}

// collapse resets the chain to its idle state — the canonical instance is
// current and carries no accessor history. Called with the owning shard
// lock held, after (or instead of, see Graph.Release) any writeback.
func (ch *verChain) collapse() {
	ch.canonical.clear()
	ch.cur = ch.canonical
	for _, v := range ch.renamed {
		if v.payload != nil {
			ch.pool = append(ch.pool, v.payload)
			v.payload = nil
		}
		v.clear()
	}
	ch.renamed = nil
}
