package core

import (
	"sync"
	"sync/atomic"
)

// SchedStats counts scheduler activity.
type SchedStats struct {
	LocalPops  uint64 // own-deque pops (locality chains)
	PrioPops   uint64 // shared-queue pops above level 0 (Priority > 0)
	GlobalPops uint64 // shared-queue pops at level 0
	Steals     uint64 // successful steals
	StealTries uint64 // victim probes (successful or not)

	// AffinityPops is always 0: the per-lane affinity mailboxes it counted
	// are gone. It stays only while benchmark/native.go still reads it, and
	// goes with that read.
	AffinityPops uint64
}

// Sched is the ready-task scheduler: per worker, a Chase–Lev work-stealing
// deque; globally, one priority-ordered ready queue under a mutex (the
// central ready-queue lock of the Nanos++ runtime, and what the simulator
// prices). Placement and victim selection are decided by the shared Policy
// (policy.go), so the native executor and the simulator exercise identical
// scheduling code.
//
// Dispatch order for a worker (Pop):
//
//  1. shared queue above level 0 (Priority > 0, highest level first)
//  2. own deque bottom (LIFO — locality chains)
//  3. shared queue level 0 (breadth-first spawn order, the Nanos++ default)
//  4. steal the top of a victim's deque, probing victims in the Policy's
//     rotated ring.
//
// Where no task has a priority, step 1 is one atomic load and the order is
// deque → FIFO → steal.
//
// Concurrency model: every path is safe from any goroutine. Deque owner
// operations are guarded by a per-lane TryLock (uncontended in the normal
// one-thread-per-lane case; aliased lanes spill to the shared queue instead
// of blocking); steals are lock-free. The simulator drives the same
// scheduler from its serialized event loop, where every lock and atomic is
// uncontended and behavior is deterministic per seed.
type Sched struct {
	workers int
	pol     Policy
	probe   Probe       // observability hook (SetProbe); nil when detached
	lanes   []laneState // len workers+1: the extra lane absorbs stats/rng for out-of-range callers

	ready readyQueue
}

// laneState is one worker's queues plus its private counters, padded so that
// per-lane hot counters never share a cache line across lanes.
type laneState struct {
	deque wsDeque    // locality chains: owner LIFO, stolen from the top
	owner sync.Mutex // serializes owner ops on the deque; TryLock only, never blocks

	rng atomic.Uint64 // xorshift64* state; racy updates only cost randomness

	localPops  atomic.Uint64
	prioPops   atomic.Uint64
	globalPops atomic.Uint64
	steals     atomic.Uint64
	stealTries atomic.Uint64

	_ [64]byte
}

// nextRand steps the lane's xorshift64* state. Lost updates under lane
// aliasing are harmless (victim choice only needs to be well spread).
func (l *laneState) nextRand() uint64 {
	x := l.rng.Load()
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	l.rng.Store(x)
	return x * 0x2545f4914f6cdd1d
}

// NewSched creates a scheduler with one lane per worker (callers may index
// workers 0..workers-1; by convention the main program uses the last index)
// governed by the given placement/stealing policy.
func NewSched(workers int, pol Policy, seed int64) *Sched {
	s := &Sched{
		workers: workers,
		pol:     pol,
		lanes:   make([]laneState, workers+1),
	}
	for i := range s.lanes {
		s.lanes[i].deque.init()
		r := mix64(uint64(seed) ^ mix64(uint64(i)+1))
		if r == 0 {
			r = 0x9e3779b97f4a7c15
		}
		s.lanes[i].rng.Store(r)
	}
	return s
}

// lane returns the stats/rng lane for a caller, mapping out-of-range worker
// indices to the shared overflow slot.
func (s *Sched) lane(worker int) *laneState {
	if worker >= 0 && worker < s.workers {
		return &s.lanes[worker]
	}
	return &s.lanes[s.workers]
}

// Stats returns a snapshot of the scheduler counters.
func (s *Sched) Stats() SchedStats {
	var st SchedStats
	for i := range s.lanes {
		l := &s.lanes[i]
		st.LocalPops += l.localPops.Load()
		st.PrioPops += l.prioPops.Load()
		st.GlobalPops += l.globalPops.Load()
		st.Steals += l.steals.Load()
		st.StealTries += l.stealTries.Load()
	}
	return st
}

// Ready returns the number of queued ready tasks: exact when the scheduler
// is quiescent or serialized (the simulator), a close racy estimate under
// native concurrency — callers only gate idle waiting on it and re-check.
func (s *Sched) Ready() int {
	n := int(s.ready.n.Load())
	for i := 0; i < s.workers; i++ {
		n += s.lanes[i].deque.size()
	}
	if n < 0 {
		return 0
	}
	return n
}

// PushSubmit enqueues a task that was ready at submission on the shared
// queue, at its priority's level.
func (s *Sched) PushSubmit(t *Task) { s.ready.push(t) }

// PushReady enqueues a task released by a finishing task on `worker`. Under
// the locality policy, an ordinary successor lands on that worker's deque
// bottom, so it is the next task popped there unless priority work waits; a
// priority successor, any successor with locality off, and one released by
// an out-of-range caller take the submission path.
func (s *Sched) PushReady(t *Task, worker int) {
	if t.Priority > 0 || !s.pol.Locality || worker < 0 || worker >= s.workers {
		s.PushSubmit(t)
		return
	}
	l := &s.lanes[worker]
	if !l.owner.TryLock() {
		// Another goroutine is aliasing this lane right now; spill to the
		// shared queue rather than block or corrupt the deque.
		s.PushSubmit(t)
		return
	}
	l.deque.pushBottom(t)
	l.owner.Unlock()
}

// Pop returns the next task for `worker` following the dispatch order in the
// type comment. Returns nil when no work is visible anywhere.
func (s *Sched) Pop(worker int) *Task {
	ln := s.lane(worker)
	if t := s.ready.pop(true); t != nil {
		ln.prioPops.Add(1)
		return t
	}
	if worker >= 0 && worker < s.workers {
		l := &s.lanes[worker]
		if l.owner.TryLock() {
			t := l.deque.popBottom()
			l.owner.Unlock()
			if t != nil {
				ln.localPops.Add(1)
				return t
			}
		}
	}
	if t := s.ready.pop(false); t != nil {
		// Priority work that arrived since the first probe is taken here.
		if t.Priority > 0 {
			ln.prioPops.Add(1)
		} else {
			ln.globalPops.Add(1)
		}
		return t
	}
	// Steal: probe every other worker once, in the policy's rotated ring,
	// iterated arithmetically so the idle spin path allocates nothing at any
	// worker count.
	if s.workers > 0 {
		rnd := ln.nextRand()
		for i := 0; ; i++ {
			v := s.pol.Victim(i, worker, s.workers, rnd)
			if v < 0 {
				break
			}
			ln.stealTries.Add(1)
			if t := s.stealFrom(v); t != nil {
				ln.steals.Add(1)
				if s.probe != nil {
					s.probe.StealEvent(worker, v, t.ID)
				}
				return t
			}
		}
	}
	return nil
}

// stealFrom takes the top (oldest task) of victim lane v's deque.
func (s *Sched) stealFrom(v int) *Task {
	d := &s.lanes[v].deque
	t, retry := d.steal()
	for retry {
		t, retry = d.steal()
	}
	return t
}
