package core

import (
	"sync"
	"sync/atomic"
)

// SchedStats counts scheduler activity.
type SchedStats struct {
	LocalPops    uint64 // own-deque pops (locality chains)
	PrioPops     uint64 // own high-priority lane pops
	AffinityPops uint64 // own-mailbox pops (affinity-homed tasks)
	GlobalPops   uint64 // global FIFO + priority side-queue pops
	Steals       uint64 // successful steals
	StealTries   uint64 // victim probes (successful or not)
}

// Sched is the ready-task scheduler: per worker, a Chase–Lev work-stealing
// deque, a high-priority LIFO lane, and an affinity mailbox; globally, a
// lock-free FIFO spawn queue plus a priority-ordered side queue. Placement
// and victim selection are decided by the shared Policy (policy.go), so the
// native executor and the simulator exercise identical scheduling code.
//
// Dispatch order for a worker (Pop):
//
//  1. own high-priority lane (LIFO — priority successors released here)
//  2. own deque bottom (LIFO — locality chains)
//  3. priority-ordered global side queue (priority submissions)
//  4. own mailbox (FIFO — affinity-hinted tasks homed on this lane)
//  5. global FIFO (breadth-first spawn order, the Nanos++ default)
//  6. steal, probing victims in the Policy's rotated ring; per victim the
//     priority lane is tried first, then the mailbox, then the deque top.
//
// Concurrency model: every path is safe from any goroutine. Deque owner
// operations are guarded by a per-lane TryLock (uncontended in the normal
// one-thread-per-lane case; aliased lanes spill to the global queue instead
// of blocking); steals, mailbox and global-queue operations are lock-free;
// the rare Priority>0 submissions go through a small mutex-ordered side
// queue. The simulator drives the same scheduler from its serialized event
// loop, where all the atomics are uncontended and behavior is deterministic
// per seed.
type Sched struct {
	workers int
	pol     Policy
	probe   Probe       // observability hook (SetProbe); nil when detached
	lanes   []laneState // len workers+1: the extra lane absorbs stats/rng for out-of-range callers

	global mpmcQueue

	prioMu sync.Mutex
	prio   []*Task // Priority>0 submissions, priority-ordered, FIFO within a level
	prioN  atomic.Int64
}

// laneState is one worker's queues plus its private counters, padded so that
// per-lane hot counters never share a cache line across lanes.
type laneState struct {
	deque    wsDeque    // locality chains: owner LIFO, stolen from the top
	prioLane wsDeque    // high-priority successors: owner LIFO, stealable
	mailbox  mpmcQueue  // affinity-homed submissions: FIFO, drainable by thieves
	owner    sync.Mutex // serializes owner ops on both deques; TryLock only, never blocks

	rng atomic.Uint64 // xorshift64* state; racy updates only cost randomness

	localPops    atomic.Uint64
	prioPops     atomic.Uint64
	affinityPops atomic.Uint64
	globalPops   atomic.Uint64
	steals       atomic.Uint64
	stealTries   atomic.Uint64

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
	s.global.init()
	for i := range s.lanes {
		s.lanes[i].deque.init()
		s.lanes[i].prioLane.init()
		s.lanes[i].mailbox.init()
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
		st.AffinityPops += l.affinityPops.Load()
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
	n := int(s.prioN.Load()) + s.global.length()
	for i := 0; i < s.workers; i++ {
		n += s.lanes[i].deque.size() + s.lanes[i].prioLane.size() + s.lanes[i].mailbox.length()
	}
	if n < 0 {
		return 0
	}
	return n
}

// Workers returns the number of lanes.
func (s *Sched) Workers() int { return s.workers }

// PushSubmit enqueues a task that was ready at submission. Priority tasks
// jump to the priority-ordered side queue; affinity-hinted tasks are mailed
// to their home lane; everything else joins the global FIFO in
// breadth-first spawn order.
func (s *Sched) PushSubmit(t *Task) {
	if t.Priority > 0 {
		s.pushPrioGlobal(t)
		return
	}
	if shard, ok := t.AffinityShard(); ok && s.workers > 0 {
		s.lanes[s.pol.HomeLane(shard, s.workers)].mailbox.enqueue(t)
		return
	}
	s.global.enqueue(t)
}

// pushPrioGlobal inserts t into the priority-ordered side queue, stable
// within a priority level.
func (s *Sched) pushPrioGlobal(t *Task) {
	s.prioMu.Lock()
	i := 0
	for i < len(s.prio) && s.prio[i].Priority >= t.Priority {
		i++
	}
	s.prio = append(s.prio, nil)
	copy(s.prio[i+1:], s.prio[i:])
	s.prio[i] = t
	s.prioN.Add(1)
	s.prioMu.Unlock()
}

// PushReady enqueues a task released by a finishing task on `worker`.
// Priority successors land on that worker's high-priority lane; under the
// locality policy, ordinary successors land on its deque bottom so they are
// the next task popped there; affinity hints on released tasks re-route to
// the home mailbox when locality is off.
func (s *Sched) PushReady(t *Task, worker int) {
	if worker < 0 || worker >= s.workers {
		s.PushSubmit(t)
		return
	}
	l := &s.lanes[worker]
	if t.Priority > 0 {
		if l.owner.TryLock() {
			l.prioLane.pushBottom(t)
			l.owner.Unlock()
			return
		}
		s.pushPrioGlobal(t)
		return
	}
	if !s.pol.Locality {
		s.PushSubmit(t)
		return
	}
	if !l.owner.TryLock() {
		// Another goroutine is aliasing this lane right now; spill to the
		// global queue rather than block or corrupt the deque.
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
	if worker >= 0 && worker < s.workers {
		l := &s.lanes[worker]
		if l.owner.TryLock() {
			t := l.prioLane.popBottom()
			if t == nil {
				t = l.deque.popBottom()
				if t != nil {
					ln.localPops.Add(1)
				}
			} else {
				ln.prioPops.Add(1)
			}
			l.owner.Unlock()
			if t != nil {
				return t
			}
		}
	}
	if s.prioN.Load() > 0 {
		var t *Task
		s.prioMu.Lock()
		if len(s.prio) > 0 {
			t = s.prio[0]
			s.prio = s.prio[1:]
			s.prioN.Add(-1)
		}
		s.prioMu.Unlock()
		if t != nil {
			ln.globalPops.Add(1)
			return t
		}
	}
	if worker >= 0 && worker < s.workers {
		if t := s.lanes[worker].mailbox.dequeue(); t != nil {
			ln.affinityPops.Add(1)
			return t
		}
	}
	if t := s.global.dequeue(); t != nil {
		ln.globalPops.Add(1)
		return t
	}
	// Steal: probe every other worker once, in the policy's rotated ring,
	// iterated arithmetically so the idle spin path allocates nothing at any
	// worker count. Per victim: priority lane, mailbox, deque.
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

// stealFrom takes one task from victim lane v: its priority lane first, then
// its mailbox, then the top (oldest task) of its deque.
func (s *Sched) stealFrom(v int) *Task {
	l := &s.lanes[v]
	t, retry := l.prioLane.steal()
	for retry {
		t, retry = l.prioLane.steal()
	}
	if t != nil {
		return t
	}
	if t := l.mailbox.dequeue(); t != nil {
		return t
	}
	t, retry = l.deque.steal()
	for retry {
		t, retry = l.deque.steal()
	}
	return t
}
