package dist

import "sort"

// centry is one mirrored cache entry: the coordinator's record that a
// worker holds the bytes of one (datum, version) pair.
type centry struct {
	size    int64
	lastUse uint64
}

// mirror is the coordinator's deterministic model of one worker's version
// cache. The worker itself never makes an eviction decision: every task
// message carries the explicit Evict list this mirror computed, and the
// worker applies it verbatim. Because each worker executes at most one
// task at a time and messages on its connection are ordered, the mirror
// and the real cache see the same operations in the same order and can
// never disagree — which is what lets the coordinator skip shipping bytes
// (WireRef.Bytes = nil) whenever the mirror says the pair is resident.
//
// Replacement is least-recently-used with the coordinator's dispatch
// counter as the clock, oldest first; entries the current task needs are
// pinned for the decision. Insertion happens in two steps matching the
// worker's behaviour: read misses insert at dispatch (the worker caches
// shipped bytes as soon as they arrive), task outputs insert only after
// the worker reports success (a failed writer's outputs never enter
// either cache).
type mirror struct {
	entries map[CacheKey]*centry
	total   int64
	budget  int64
	tick    uint64
	evicted int64 // lifetime count, for Stats
}

func newMirror(budget int64) *mirror {
	return &mirror{entries: make(map[CacheKey]*centry), budget: budget}
}

// has reports residency without touching recency.
func (m *mirror) has(k CacheKey) bool {
	_, ok := m.entries[k]
	return ok
}

// hitBytes sums the sizes of the given keys that are resident — the
// scheduler's affinity score for placing a task on this worker.
func (m *mirror) hitBytes(keys []CacheKey) int64 {
	var n int64
	for _, k := range keys {
		if e, ok := m.entries[k]; ok {
			n += e.size
		}
	}
	return n
}

// touch marks a resident key used now.
func (m *mirror) touch(k CacheKey) {
	if e, ok := m.entries[k]; ok {
		m.tick++
		e.lastUse = m.tick
	}
}

// planEvict makes room for `incoming` new bytes while keeping every key in
// `pinned` resident, and returns the eviction list in deterministic
// (lastUse, then key) order. Entries never seen by the current task are
// evicted oldest-first until the cache fits. If even evicting everything
// unpinned cannot fit the incoming bytes, the remaining overflow is
// tolerated: the task's own working set must be resident regardless, so
// the budget is a target, not a hard wall.
func (m *mirror) planEvict(pinned []CacheKey, incoming int64) []CacheKey {
	if m.total+incoming <= m.budget {
		return nil
	}
	pin := make(map[CacheKey]bool, len(pinned))
	for _, k := range pinned {
		pin[k] = true
	}
	type cand struct {
		key CacheKey
		e   *centry
	}
	var cands []cand
	for k, e := range m.entries {
		if !pin[k] {
			cands = append(cands, cand{k, e})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.e.lastUse != b.e.lastUse {
			return a.e.lastUse < b.e.lastUse
		}
		if a.key.Datum != b.key.Datum {
			return a.key.Datum < b.key.Datum
		}
		return a.key.Ver < b.key.Ver
	})
	var out []CacheKey
	for _, c := range cands {
		if m.total+incoming <= m.budget {
			break
		}
		delete(m.entries, c.key)
		m.total -= c.e.size
		m.evicted++
		out = append(out, c.key)
	}
	return out
}

// insert records a newly resident pair (idempotent on re-insert).
func (m *mirror) insert(k CacheKey, size int64) {
	if e, ok := m.entries[k]; ok {
		m.tick++
		e.lastUse = m.tick
		return
	}
	m.tick++
	m.entries[k] = &centry{size: size, lastUse: m.tick}
	m.total += size
}

// wcache is the worker-side real cache: a dumb map that applies the
// coordinator's orders. No sizes, no policy — policy lives in the mirror.
// Only the worker's task loop touches it, so it takes no lock.
//
// A shipped entry is a view into the frame it arrived in (ReadFrame), so
// it keeps that frame's one buffer alive: its own bytes, a few dozen bytes
// of header, and the other payloads shipped in the same frame — the rest
// of one task's copy-in set, since only the first link of a chain ships
// anything. The mirror charges each key its own size, so a worker's real
// footprint can exceed the mirror's total by the evicted frame-mates of
// entries still resident, at most one task's copy-in set per resident
// shipped entry; frame-mates enter the LRU on consecutive ticks and so
// normally leave together. Task outputs are the worker's own buffers and
// pin nothing.
type wcache struct {
	entries map[CacheKey][]byte
}

func newWCache() *wcache { return &wcache{entries: make(map[CacheKey][]byte)} }

func (c *wcache) get(k CacheKey) ([]byte, bool) {
	b, ok := c.entries[k]
	return b, ok
}

func (c *wcache) put(k CacheKey, b []byte) { c.entries[k] = b }

func (c *wcache) applyEvict(keys []CacheKey) {
	for _, k := range keys {
		delete(c.entries, k)
	}
}
