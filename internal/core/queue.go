package core

import (
	"slices"
	"sync"
	"sync/atomic"
)

// readyQueue is the shared ready queue: one FIFO ring per priority level
// under one mutex. A task's level is its Priority, every priority ≤ 0
// sharing level 0 (breadth-first spawn order, the Nanos++ default); pop
// takes the front of the highest non-empty level. The rings are kept as they
// drain, so a steady push/pop stream allocates nothing, and two atomic
// counts let a caller skip the lock when the queue is empty or holds no work
// above level 0. The zero value is an empty queue.
type readyQueue struct {
	mu     sync.Mutex
	levels []level      // ascending priority; levels[0] is level 0
	n      atomic.Int64 // queued tasks
	high   atomic.Int64 // queued tasks above level 0
}

// level is one priority's FIFO: a ring whose length is a power of two.
type level struct {
	prio       int
	ring       []*Task
	head, size int
}

func (q *readyQueue) push(t *Task) {
	q.mu.Lock()
	lv := q.level(t.Priority)
	if lv.size == len(lv.ring) {
		ring := make([]*Task, max(2*len(lv.ring), 32))
		k := copy(ring, lv.ring[lv.head:])
		copy(ring[k:], lv.ring[:lv.head])
		lv.ring, lv.head = ring, 0
	}
	lv.ring[(lv.head+lv.size)&(len(lv.ring)-1)] = t
	lv.size++
	q.n.Add(1)
	if lv.prio > 0 {
		q.high.Add(1)
	}
	q.mu.Unlock()
}

// level returns the ring of priority p's level, adding it in order if it is
// new. Called with mu held.
func (q *readyQueue) level(p int) *level {
	if len(q.levels) == 0 {
		q.levels = append(q.levels, level{})
	}
	if p <= 0 {
		return &q.levels[0]
	}
	i := len(q.levels)
	for q.levels[i-1].prio > p { // stops at levels[0], whose prio is 0
		i--
	}
	if q.levels[i-1].prio == p {
		return &q.levels[i-1]
	}
	q.levels = slices.Insert(q.levels, i, level{prio: p})
	return &q.levels[i]
}

// pop removes the front task of the highest non-empty level; with high set,
// only a level above 0 qualifies. It returns nil without locking when the
// counts say nothing qualifies.
func (q *readyQueue) pop(high bool) *Task {
	lo := 0
	if high {
		if q.high.Load() <= 0 {
			return nil
		}
		lo = 1
	} else if q.n.Load() <= 0 {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := len(q.levels) - 1; i >= lo; i-- {
		lv := &q.levels[i]
		if lv.size == 0 {
			continue
		}
		t := lv.ring[lv.head]
		lv.ring[lv.head] = nil // the ring must not keep t reachable
		lv.head = (lv.head + 1) & (len(lv.ring) - 1)
		lv.size--
		q.n.Add(-1)
		if i > 0 {
			q.high.Add(-1)
		}
		return t
	}
	return nil
}
