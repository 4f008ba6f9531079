package vm

// This file implements the synchronization vocabulary of the simulated
// machine. Two families exist, mirroring the distinction the paper draws in
// §4 (rgbcmy) and §5:
//
//   - blocking primitives (Mutex, Cond, Barrier): waiters release their core
//     and pay an OS wake latency (CondWake, staggered BarrierWake) when
//     released — the Pthreads default.
//   - polling primitives (SpinBarrier, SpinVar, SpinUntil): waiters keep
//     their core busy and observe releases within PollInterval — the OmpSs
//     runtime style. Occupied-but-idle time is accounted as Spin so the §5
//     occupancy observation can be measured.
//
// Spinners are timesliced when their core is oversubscribed, so polling code
// still makes progress on fewer cores than threads (this matters for the
// 1-core column of Table 1).

// WaitSet tracks virtual threads parked inside a busy-wait loop. Producers
// call WakeAll after changing the watched state; each waiter re-evaluates its
// predicate. The zero value is ready to use.
type WaitSet struct {
	parked []*Thread
}

// park records t as spinning on ws from now on; its core stays held.
func (ws *WaitSet) park(t *Thread) {
	t.spinStart = t.vm.now
	t.state = stSpinning
	t.parkedOn = ws
	ws.parked = append(ws.parked, t)
}

func (ws *WaitSet) remove(t *Thread) {
	for i, w := range ws.parked {
		if w == t {
			ws.parked = append(ws.parked[:i], ws.parked[i+1:]...)
			return
		}
	}
}

// WakeAll releases every parked waiter. Each notices after the machine's
// PollInterval (the expected latency of a busy-wait loop noticing a store)
// and re-evaluates its wait predicate.
func (ws *WaitSet) WakeAll(v *VM) {
	for _, t := range ws.parked {
		t.parkedOn = nil
		v.at(v.now+v.cfg.Cost.PollInterval, evSpinWake, t)
	}
	ws.parked = ws.parked[:0]
}

// SpinUntil busy-waits until check() reports true, keeping the thread's core
// occupied (accounted as Spin). ws must be woken (WakeAll) by whoever makes
// check() true. If other threads are queued on the same core, the spinner is
// timesliced like a preemptively scheduled OS thread, so spin loops cannot
// starve producers on oversubscribed cores.
//
// A spinner parked on its core has nothing to run but the poll, so the event
// loop runs it: check() is called by whichever goroutine holds the token
// (one runner at any instant) and must only read simulation state.
func (t *Thread) SpinUntil(ws *WaitSet, check func() bool) {
	t.Charge(t.vm.cfg.Cost.PollCheck)
	for {
		t.flush()
		if check() {
			return
		}
		if len(t.core.runq) > 0 {
			t.advance(t.vm.cfg.Quantum, true)
			t.preempt()
			t.Charge(t.vm.cfg.Cost.PollCheck)
			continue
		}
		t.spinWS, t.spinCheck = ws, check
		ws.park(t)
		t.yield() // the loop has charged every poll up to now, this one included
		if len(t.core.runq) == 0 {
			return // resumed because the loop saw check() hold
		}
	}
}

// spinWake is the event loop's half of SpinUntil: t, parked on its core, was
// woken or booted. The poll it pays is an event of its own, so virtual time
// moves as if t had run the loop body. Reports whether t must take the token.
func (vm *VM) spinWake(t *Thread) bool {
	t.core.Spin += vm.now - t.spinStart
	if d := vm.cfg.Cost.PollCheck; d > 0 {
		t.state = stComputing
		vm.at(vm.now+d, evSpinPoll, t)
		return false
	}
	return vm.spinSettle(t)
}

// spinSettle evaluates a woken spinner's predicate in event context: t's
// goroutine is needed only to return from SpinUntil or to timeslice against a
// queued peer; a futile wake-up re-parks the spinner without a switch.
func (vm *VM) spinSettle(t *Thread) bool {
	if len(t.core.runq) > 0 || t.spinCheck() {
		return true
	}
	vm.settled++
	t.spinWS.park(t)
	return false
}

// WakeAt makes t runnable at the given virtual time. Use together with
// Thread.Block.
func (vm *VM) WakeAt(t *Thread, at Time) { vm.at(at, evReady, t) }

// Mutex is a blocking lock with FIFO handoff. The zero value is unlocked.
type Mutex struct {
	locked bool
	owner  *Thread
	q      []*Thread
}

// Lock acquires m, blocking (off-core) while contended. An uncontended
// acquire costs MutexFast; a contended one additionally pays MutexSlow +
// CondWake before the waiter resumes with ownership.
func (t *Thread) Lock(m *Mutex) {
	t.Charge(t.vm.cfg.Cost.MutexFast)
	t.flush()
	if !m.locked {
		m.locked = true
		m.owner = t
		return
	}
	m.q = append(m.q, t)
	t.Block("mutex")
}

// Unlock releases m, handing ownership to the oldest waiter if any.
func (t *Thread) Unlock(m *Mutex) {
	t.flush()
	if m.owner != t {
		panic("vm: Unlock of mutex not owned by thread " + t.Name)
	}
	if len(m.q) == 0 {
		m.locked = false
		m.owner = nil
		return
	}
	next := m.q[0]
	m.q = m.q[1:]
	m.owner = next
	t.vm.WakeAt(next, t.vm.now+t.vm.cfg.Cost.MutexSlow+t.vm.cfg.Cost.CondWake)
}

// Cond is a blocking condition variable used with a Mutex.
type Cond struct {
	q []*Thread
}

// CondWait atomically releases m and blocks until signalled, then reacquires
// m before returning (pthread_cond_wait semantics, including the usual
// requirement that callers re-check their predicate in a loop).
func (t *Thread) CondWait(c *Cond, m *Mutex) {
	c.q = append(c.q, t)
	t.Unlock(m)
	t.Block("cond")
	t.Lock(m)
}

// CondSignal wakes the oldest waiter, if any.
func (t *Thread) CondSignal(c *Cond) {
	t.flush()
	if len(c.q) == 0 {
		return
	}
	w := c.q[0]
	c.q = c.q[1:]
	t.vm.WakeAt(w, t.vm.now+t.vm.cfg.Cost.CondWake)
}

// CondBroadcast wakes all waiters, staggered by the machine's wake cost
// (futex broadcasts wake serially).
func (t *Thread) CondBroadcast(c *Cond) {
	t.flush()
	for i, w := range c.q {
		t.vm.WakeAt(w, t.vm.now+t.vm.cfg.Cost.CondWake+Time(i)*t.vm.cfg.Cost.BarrierWake)
	}
	c.q = nil
}

// Barrier is a blocking thread barrier for N participants. Waiters sleep
// off-core; the release is staggered per waiter (BarrierWake), which is what
// makes blocking barriers expensive at high core counts for short phases —
// the paper's rgbcmy observation. The zero value is invalid; set N.
type Barrier struct {
	N       int
	arrived int
	q       []*Thread
}

// BarrierWait blocks until N threads have arrived. Returns true on the last
// arriver (the "serial thread", as in pthread_barrier_wait).
func (t *Thread) BarrierWait(b *Barrier) bool {
	cm := &t.vm.cfg.Cost
	t.Charge(cm.MutexFast)
	t.flush()
	b.arrived++
	if b.arrived < b.N {
		b.q = append(b.q, t)
		t.Block("barrier")
		return false
	}
	b.arrived = 0
	for i, w := range b.q {
		t.vm.WakeAt(w, t.vm.now+cm.CondWake+Time(i)*cm.BarrierWake)
	}
	b.q = nil
	return true
}

// SpinBarrier is a polling (busy-wait) barrier for N participants. Waiters
// keep their cores and observe the release within PollInterval — the OmpSs
// task-barrier style. The zero value is invalid; set N.
type SpinBarrier struct {
	N       int
	arrived int
	gen     uint64
	ws      WaitSet
}

// SpinBarrierWait busy-waits until N threads have arrived. Returns true on
// the last arriver.
func (t *Thread) SpinBarrierWait(b *SpinBarrier) bool {
	t.Charge(t.vm.cfg.Cost.PollCheck)
	t.flush()
	b.arrived++
	if b.arrived == b.N {
		b.arrived = 0
		b.gen++
		b.ws.WakeAll(t.vm)
		return true
	}
	gen := b.gen
	t.SpinUntil(&b.ws, func() bool { return b.gen != gen })
	return false
}

// SpinVar is an atomic progress counter with efficient simulated busy-wait
// observers. It models the per-line decoded-macroblock counters used by
// optimized wavefront decoders (Chi & Juurlink's line decoding, paper §4).
// The zero value holds 0.
type SpinVar struct {
	val int64
	ws  WaitSet
}

// SpinStore publishes a new value and wakes watchers.
func (t *Thread) SpinStore(v *SpinVar, x int64) {
	t.Charge(t.vm.cfg.Cost.PollCheck)
	t.flush()
	v.val = x
	v.ws.WakeAll(t.vm)
}

// SpinAdd atomically adds delta, wakes watchers, and returns the new value.
func (t *Thread) SpinAdd(v *SpinVar, delta int64) int64 {
	t.Charge(t.vm.cfg.Cost.PollCheck)
	t.flush()
	v.val += delta
	v.ws.WakeAll(t.vm)
	return v.val
}

// SpinLoad reads the current value.
func (t *Thread) SpinLoad(v *SpinVar) int64 {
	t.Charge(t.vm.cfg.Cost.PollCheck)
	return v.val
}

// SpinWaitGE busy-waits until the variable reaches at least x.
func (t *Thread) SpinWaitGE(v *SpinVar, x int64) {
	t.SpinUntil(&v.ws, func() bool { return v.val >= x })
}
