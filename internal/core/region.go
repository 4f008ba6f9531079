package core

import "sort"

// Region identifies a half-open span [Lo, Hi) of an underlying array (the
// OmpSs array-section dependence, e.g. `input(a[lo:hi])`). Base is the
// array's identity key (typically a pointer to its first element or header);
// Lo/Hi are offsets in any consistent unit (bytes, elements). Two accesses
// conflict when their bases match exactly and their spans overlap.
type Region struct {
	Base   any
	Lo, Hi int64
}

// Len returns the span length.
func (r Region) Len() int64 { return r.Hi - r.Lo }

// segment is one disjoint span of a tracked array with its own dependence
// record. Segments are kept sorted and split on access boundaries, so every
// access operates on exactly-covered segments.
type segment struct {
	lo, hi     int64
	lastWriter *Task
	readers    []*Task
}

// regionDatum tracks all segments of one array base.
type regionDatum struct {
	segs []*segment
	// pinned marks records interned by RegisterRegion (see drec.pinned).
	pinned bool
	// noRenameSpans records NoRename opt-outs issued before the span's
	// chain existed (see Datum.NoRename).
	noRenameSpans [][2]int64
	// chains holds the renameable tile spans of this base (see rename.go):
	// one version chain per exact span registered through a region handle's
	// EnableRenaming. While a chain is active, accesses with exactly its
	// span are tracked on the chain (not the segments); any overlapping
	// access with a different span seals the chain and every path falls
	// back to conservative segment tracking.
	chains []*spanChain
}

// spanChain binds a version chain to one exact tile span of a region base.
type spanChain struct {
	lo, hi int64
	ch     *verChain
}

// chainAt returns the chain registered for exactly [lo, hi), or nil.
func (rd *regionDatum) chainAt(lo, hi int64) *spanChain {
	for _, sc := range rd.chains {
		if sc.lo == lo && sc.hi == hi {
			return sc
		}
	}
	return nil
}

// spanNoRename reports whether a NoRename was issued for exactly [lo, hi)
// before its chain existed.
func (rd *regionDatum) spanNoRename(lo, hi int64) bool {
	for _, s := range rd.noRenameSpans {
		if s[0] == lo && s[1] == hi {
			return true
		}
	}
	return false
}

// observeSegments wires conservative edges from the raw-access history
// overlapping [lo, hi) without recording anything: the chain path uses it
// so a tile access stays ordered after earlier raw accesses while the tile
// itself is tracked on its version chain. mode is the access's effective
// mode (reads order after segment writers only; writes also after segment
// readers).
func (rd *regionDatum) observeSegments(lo, hi int64, mode Mode, addPred func(*Task)) {
	for _, s := range rd.segs {
		if s.hi <= lo || s.lo >= hi {
			continue
		}
		addPred(s.lastWriter)
		if mode == Out || mode == InOut {
			for _, rt := range s.readers {
				addPred(rt)
			}
		}
	}
}

// split ensures segment boundaries exist at lo and hi, creating a fresh
// untracked segment for any uncovered gap inside [lo, hi), and returns the
// segments fully covered by [lo, hi).
func (d *regionDatum) split(lo, hi int64) []*segment {
	// Cut existing segments at lo and hi.
	for _, cut := range []int64{lo, hi} {
		for i, s := range d.segs {
			if s.lo < cut && cut < s.hi {
				right := &segment{lo: cut, hi: s.hi, lastWriter: s.lastWriter,
					readers: append([]*Task(nil), s.readers...)}
				s.hi = cut
				d.segs = append(d.segs, nil)
				copy(d.segs[i+2:], d.segs[i+1:])
				d.segs[i+1] = right
				break
			}
		}
	}
	// Fill gaps inside [lo, hi) with untracked segments.
	var covered []*segment
	cursor := lo
	for _, s := range d.segs {
		if s.hi <= lo || s.lo >= hi {
			continue
		}
		if s.lo > cursor {
			covered = append(covered, &segment{lo: cursor, hi: s.lo})
		}
		covered = append(covered, s)
		cursor = s.hi
	}
	if cursor < hi {
		covered = append(covered, &segment{lo: cursor, hi: hi})
	}
	// Merge any fresh gap segments back into the sorted list.
	d.segs = mergeSegs(d.segs, covered)
	return covered
}

func mergeSegs(all, add []*segment) []*segment {
	seen := make(map[*segment]bool, len(all))
	for _, s := range all {
		seen[s] = true
	}
	for _, s := range add {
		if !seen[s] {
			all = append(all, s)
			seen[s] = true
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].lo < all[j].lo })
	return all
}

// regionRec returns (creating if needed) the region record of base. Called
// with the shard lock held.
func (sh *gshard) regionRec(base any) *regionDatum {
	rd := sh.regions[base]
	if rd == nil {
		rd = &regionDatum{}
		if sh.regions == nil {
			sh.regions = make(map[any]*regionDatum)
		}
		sh.regions[base] = rd
	}
	return rd
}

// submit wires dependence edges for one region access of t and updates the
// segment records. Called with the owning shard lock held; the caller
// provides the shared edge-dedup set.
func (rd *regionDatum) submit(g *Graph, t *Task, a Access, r Region, addPred func(*Task)) {
	if r.Hi <= r.Lo {
		return
	}
	// Tile-granular renaming: an access matching an active chain's exact
	// span is tracked on the chain. It still orders after the raw-access
	// history of the span (observe-only — the access itself is recorded on
	// the chain, where later raw accesses find it through the scan below).
	// Region updaters already serialize conservatively like InOut here, so
	// they keep doing exactly that on the chain.
	if sc := rd.chainAt(r.Lo, r.Hi); sc != nil && !sc.ch.noRename {
		mode := a.Mode
		if mode == Commutative {
			mode = InOut
		}
		rd.observeSegments(r.Lo, r.Hi, mode, addPred)
		g.wireChained(sc.ch, t, mode, addPred)
		return
	}
	// Raw/segment path: order after every live instance of any overlapping
	// chain, and seal chains whose tile discipline this access breaks (a
	// non-exact overlap). The edges guarantee the chain fully drains — and
	// writes back — before this task runs, so reading the canonical storage
	// is both race-free and current.
	for _, sc := range rd.chains {
		if sc.lo < r.Hi && r.Lo < sc.hi {
			if sc.lo != r.Lo || sc.hi != r.Hi {
				sc.ch.noRename = true
			}
			sc.ch.canonical.addAccessors(addPred)
			for _, v := range sc.ch.renamed {
				v.addAccessors(addPred)
			}
		}
	}
	covered := rd.split(r.Lo, r.Hi)
	switch a.Mode {
	case In:
		for _, s := range covered {
			addPred(s.lastWriter)
			s.readers = append(s.readers, t)
		}
	case Out, InOut, Commutative:
		// Commutative over a region conservatively serializes like InOut
		// (region-level commutativity sets are not supported): updaters
		// must still order against readers and writers, so treating them
		// as writers is the safe over-approximation.
		for _, s := range covered {
			addPred(s.lastWriter)
			for _, rt := range s.readers {
				addPred(rt)
			}
			s.lastWriter = t
			s.readers = nil
			if a.Mode != Out {
				s.readers = append(s.readers, t)
			}
		}
	}
}

// regionWriters returns the unfinished tasks that are last writers of any
// segment overlapping r (the `taskwait on(a[lo:hi])` set). Takes the
// owning shard's lock.
func (g *Graph) regionWriters(r Region) []*Task {
	sh := &g.shards[shardIndex(r.Base)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rd := sh.regions[r.Base]
	if rd == nil {
		return nil
	}
	var out []*Task
	seen := map[*Task]bool{}
	for _, s := range rd.segs {
		if s.hi <= r.Lo || s.lo >= r.Hi {
			continue
		}
		if w := s.lastWriter; w != nil && !w.Finished() && !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	// Overlapping version chains: waiting must cover every live instance's
	// accessors, not just the current writer — the last of them to finish
	// performs the writeback, and `taskwait on` promises the canonical
	// storage is current afterwards.
	for _, sc := range rd.chains {
		if sc.lo < r.Hi && r.Lo < sc.hi {
			out = appendChainWaiters(out, seen, sc.ch)
		}
	}
	return out
}

// appendChainWaiters collects the unfinished accessors of every live
// instance of a chain. Called with the owning shard lock held.
func appendChainWaiters(out []*Task, seen map[*Task]bool, ch *verChain) []*Task {
	collect := func(t *Task) {
		if t != nil && !t.Finished() && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	ch.canonical.addAccessors(collect)
	for _, v := range ch.renamed {
		v.addAccessors(collect)
	}
	return out
}

// Writers generalizes LastWriter: for a Region key it returns every
// unfinished last writer of an overlapping segment (plus, for renameable
// data, every live instance accessor — so waiting flushes the rename and
// the canonical storage is current on return); for an exact key, the
// single last writer, or the chain's accessor set when the datum is
// renameable.
func (g *Graph) Writers(key any) []*Task {
	if r, ok := key.(Region); ok {
		return g.regionWriters(r)
	}
	sh := &g.shards[shardIndex(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	d := sh.datums[key]
	if d == nil {
		return nil
	}
	if d.chain != nil {
		return appendChainWaiters(nil, map[*Task]bool{}, d.chain)
	}
	if w := d.lastWriter; w != nil && !w.Finished() {
		return []*Task{w}
	}
	return nil
}
