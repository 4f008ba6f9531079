package ompss

import (
	"sync"

	"ompssgo/internal/vm"
)

// rtLock is a lock a task body holds while it runs: host is taken by a
// goroutine natively, virt by a virtual thread under simulation (see the
// clock's lock/unlock); a runtime only ever uses one of the two.
type rtLock struct {
	rank uint64
	host sync.Mutex
	virt vm.Mutex
}

// lockTable holds the per-key locks of Commutative clauses and Critical
// sections. Each key gets a lock with a rank assigned at first use; resolve
// returns a key set's locks deduplicated and sorted by ascending rank.
// Acquiring multi-key lock sets in rank order is the deadlock-freedom
// invariant: tasks declaring the same keys in opposite clause orders still
// lock them identically.
type lockTable struct {
	mu  sync.Mutex // guards the map and rank counter, never held while bodies run
	m   map[any]*rtLock
	seq uint64
}

// named returns the lock of a Critical section. The lookup boxes name into a
// key that does not escape; only a name's first use allocates.
func (t *lockTable) named(name string) *rtLock {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.m[critName(name)]; e != nil {
		return e
	}
	return t.add(critName(name))
}

// add creates key's lock, ranked after every lock created so far. Called
// with t.mu held.
func (t *lockTable) add(key any) *rtLock {
	if t.m == nil {
		t.m = make(map[any]*rtLock)
	}
	t.seq++
	e := &rtLock{rank: t.seq}
	t.m[key] = e
	return e
}

// resolve returns the locks of keys (creating on first use), deduplicated
// and sorted by rank. Safe from any goroutine.
func (t *lockTable) resolve(keys []any) []*rtLock {
	t.mu.Lock()
	locks := make([]*rtLock, 0, len(keys))
	for _, k := range keys {
		e := t.m[k]
		if e == nil {
			e = t.add(k)
		}
		locks = append(locks, e)
	}
	t.mu.Unlock()
	// Insertion sort: commutative key sets are 1-3 entries, not worth
	// sort.Slice's reflection.
	for i := 1; i < len(locks); i++ {
		for j := i; j > 0 && locks[j].rank < locks[j-1].rank; j-- {
			locks[j], locks[j-1] = locks[j-1], locks[j]
		}
	}
	// Drop duplicate keys (the same lock listed twice would self-deadlock).
	out := locks[:0]
	for i, l := range locks {
		if i == 0 || locks[i-1] != l {
			out = append(out, l)
		}
	}
	return out
}
