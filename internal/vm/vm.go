// Package vm implements a deterministic discrete-event simulator of a
// multi-socket, cache-coherent NUMA chip multiprocessor.
//
// The simulator stands in for the 4-socket, 32-core cc-NUMA machine used in
// the paper's evaluation (see DESIGN.md §1). It executes *real* Go code: each
// virtual thread is a goroutine, and one scheduling token passes between
// them, so exactly one virtual thread runs at any real instant and all
// virtual threads observe shared memory in virtual-time order. Results
// computed inside the simulation are therefore bit-identical to a native run,
// while wall-clock behaviour (core occupancy, synchronization latency, cache
// warmth, NUMA penalties) is modeled by the CostModel.
//
// The engine is a classic event-heap DES: events are (time, seq, kind,
// thread) tuples, processed in (time, seq) order, so identical configurations
// replay identically. Whoever holds the token runs the event loop: a thread
// that yields pops events itself, continues without a goroutine switch when
// the next resumption is its own, and otherwise wakes the target directly
// (see dispatch). Virtual threads are pinned to virtual cores; a core runs
// one thread at a time and timeslices (quantum + context-switch cost) when
// oversubscribed, like a preemptive OS scheduler.
package vm

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
)

// Time is virtual time in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	}
	return fmt.Sprintf("%dns", int64(t))
}

// Config describes the simulated machine.
type Config struct {
	// Cores is the number of virtual cores (≥1).
	Cores int
	// Sockets is the number of NUMA sockets. Cores are split into
	// contiguous, equally sized blocks, mirroring the paper's 4×8 layout.
	// Values that do not divide Cores are rounded so every core has a
	// socket. Zero means 1.
	Sockets int
	// Quantum is the preemption timeslice used when a core is
	// oversubscribed. Zero selects the default (1 ms).
	Quantum Time
	// Cost is the machine cost model. Zero value selects DefaultCostModel.
	Cost CostModel
}

func (c Config) withDefaults() Config {
	if c.Cores <= 0 {
		c.Cores = 1
	}
	if c.Sockets <= 0 {
		c.Sockets = 1
	}
	if c.Sockets > c.Cores {
		c.Sockets = c.Cores
	}
	if c.Quantum <= 0 {
		c.Quantum = Millisecond
	}
	if c.Cost == (CostModel{}) {
		c.Cost = DefaultCostModel()
	}
	return c
}

// evKind says what the event loop does with an event.
type evKind uint8

const (
	evResume   evKind = iota // hand the token to the thread
	evReady                  // makeReady(thread)
	evSpinWake               // a parked spinner was woken (WakeAll) or booted off its core
	evSpinPoll               // the woken spinner's PollCheck has elapsed: evaluate its predicate
)

// event is a scheduled action on a thread. seq breaks time ties FIFO so runs
// replay deterministically.
type event struct {
	at   Time
	seq  uint64
	kind evKind
	t    *Thread
}

func (e event) before(o event) bool { return e.at < o.at || e.at == o.at && e.seq < o.seq }

// eventHeap is a binary min-heap on (at, seq).
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for p := (i - 1) / 2; i > 0 && e.before(q[p]); i, p = p, (p-1)/2 {
		q[i] = q[p]
	}
	q[i] = e
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	top, last := q[0], q[n]
	q = q[:n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && q[c+1].before(q[c]) {
			c++
		}
		if !q[c].before(last) {
			break
		}
		q[i], i = q[c], c
	}
	if n > 0 {
		q[i] = last
	}
	*h = q
	return top
}

// Core is one virtual processor.
type Core struct {
	ID     int
	Socket int

	cur  *Thread   // thread currently owning the core (running or spinning)
	runq []*Thread // ready threads waiting for the core

	// accounting
	Busy Time // time spent executing useful work
	Spin Time // time spent busy-waiting (polling); a subset of occupancy
	// Busy+Spin vs final time gives idle time.
}

// VM is a simulated machine instance. Create with New, populate with Go, and
// drive to completion with Run. A VM is not safe for concurrent use from
// multiple real goroutines except through its own virtual threads.
type VM struct {
	cfg     Config
	now     Time
	events  eventHeap
	seq     uint64
	cores   []*Core
	threads []*Thread
	live    int // threads not yet finished
	nevents uint64

	done      chan struct{} // token holder -> Run: every thread finished, or deadlock
	running   bool
	poisoned  bool   // Run is unwinding a deadlock: a resumed thread exits
	transfers uint64 // token handoffs between goroutines
	settled   uint64 // spinner wake-ups the loop settled without one

	datums map[any]*datumState                            // memory warmth tracking
	hook   func(at Time, seq uint64, kind uint8, tid int) // tests only: sees every dispatched event
}

// onNew, when set (by this package's tests), sees every VM that New creates.
var onNew func(*VM)

// New creates a simulated machine.
func New(cfg Config) *VM {
	cfg = cfg.withDefaults()
	vm := &VM{
		cfg:    cfg,
		done:   make(chan struct{}, 1),
		datums: make(map[any]*datumState),
	}
	per := (cfg.Cores + cfg.Sockets - 1) / cfg.Sockets
	cores := make([]Core, cfg.Cores)
	vm.cores = make([]*Core, cfg.Cores)
	for i := range cores {
		cores[i] = Core{ID: i, Socket: i / per}
		vm.cores[i] = &cores[i]
	}
	if onNew != nil {
		onNew(vm)
	}
	return vm
}

// Now returns the current virtual time.
func (vm *VM) Now() Time { return vm.now }

// Cores returns the number of virtual cores.
func (vm *VM) Cores() int { return len(vm.cores) }

// Cost returns the machine's cost model.
func (vm *VM) Cost() *CostModel { return &vm.cfg.Cost }

// at schedules an event of the given kind on t at time `at` (clamped to now).
func (vm *VM) at(at Time, kind evKind, t *Thread) {
	if at < vm.now {
		at = vm.now
	}
	vm.seq++
	vm.events.push(event{at: at, seq: vm.seq, kind: kind, t: t})
}

// Stats summarizes a finished run.
type Stats struct {
	Time    Time   // virtual makespan
	Events  uint64 // DES events processed
	Cores   []CoreStats
	Threads int
	// Host-side cost, not part of the modelled machine: token handoffs between
	// goroutines, and futile spinner wake-ups the event loop settled without one.
	Transfers, Settled uint64
}

// CoreStats is per-core occupancy accounting.
type CoreStats struct {
	Busy Time // useful execution
	Spin Time // busy-wait occupancy
}

// Utilization returns the fraction of core-time spent on useful work.
func (s Stats) Utilization() float64 {
	if s.Time == 0 || len(s.Cores) == 0 {
		return 0
	}
	var busy Time
	for _, c := range s.Cores {
		busy += c.Busy
	}
	return float64(busy) / (float64(s.Time) * float64(len(s.Cores)))
}

// Occupancy returns the fraction of core-time during which cores were held
// (useful work + spinning). The paper's §5 responsiveness remark is about
// occupancy exceeding utilization under polling runtimes.
func (s Stats) Occupancy() float64 {
	if s.Time == 0 || len(s.Cores) == 0 {
		return 0
	}
	var occ Time
	for _, c := range s.Cores {
		occ += c.Busy + c.Spin
	}
	return float64(occ) / (float64(s.Time) * float64(len(s.Cores)))
}

// Run processes events until every virtual thread has finished. It returns an
// error when the simulation deadlocks (live threads but no pending events).
// Run is the first holder of the token, not a relay: it dispatches until a
// thread takes over, then waits for whoever ends the run.
func (vm *VM) Run() (Stats, error) {
	if vm.running {
		return Stats{}, fmt.Errorf("vm: Run called twice")
	}
	vm.running = true
	vm.dispatch(nil)
	<-vm.done
	st := vm.stats()
	if vm.live == 0 {
		return st, nil
	}
	err := fmt.Errorf("vm: deadlock at %v: %s", vm.now, vm.dumpThreads())
	// Unwind the stuck threads one at a time so no goroutine outlives Run.
	vm.poisoned = true
	for _, t := range vm.threads {
		if !t.finished {
			t.resume <- struct{}{}
			<-vm.done
		}
	}
	return st, err
}

// dispatch runs the event loop on the calling goroutine, which holds the
// token. self is the virtual thread that is yielding, nil for Run and for a
// finished thread. Events the loop settles itself (evReady, a spinner's futile
// wake-up) cost no goroutine switch; the loop ends when an event hands the
// token to a thread. If that is self, dispatch returns; otherwise it wakes the
// target and, for a live self, sleeps until some holder hands the token back.
func (vm *VM) dispatch(self *Thread) {
	for {
		if vm.live == 0 || len(vm.events) == 0 {
			vm.done <- struct{}{} // finished or deadlocked: Run decides
			break
		}
		ev := vm.events.pop()
		vm.now = ev.at
		vm.nevents++
		t := ev.t
		if vm.hook != nil {
			vm.hook(ev.at, ev.seq, uint8(ev.kind), t.ID)
		}
		switch ev.kind {
		case evReady:
			vm.makeReady(t)
			continue
		case evSpinWake:
			if !vm.spinWake(t) {
				continue
			}
		case evSpinPoll:
			t.core.Busy += vm.cfg.Cost.PollCheck
			if !vm.spinSettle(t) {
				continue
			}
		}
		t.state = stRunning
		if t == self {
			return
		}
		vm.transfers++
		t.resume <- struct{}{}
		break
	}
	if self != nil {
		self.awaitToken()
	}
}

func (vm *VM) stats() Stats {
	s := Stats{Time: vm.now, Events: vm.nevents, Threads: len(vm.threads), Transfers: vm.transfers, Settled: vm.settled}
	s.Cores = make([]CoreStats, len(vm.cores))
	for i, c := range vm.cores {
		s.Cores[i] = CoreStats{Busy: c.Busy, Spin: c.Spin}
	}
	return s
}

func (vm *VM) dumpThreads() string {
	var parts []string
	for _, t := range vm.threads {
		if !t.finished {
			st := stateNames[t.state]
			if t.state == stBlocked {
				st += t.label
			}
			parts = append(parts, fmt.Sprintf("%s[%s]", t.Name, st))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

// Go creates a virtual thread pinned to the given core, running fn. It may be
// called before Run (root threads) or from another virtual thread
// (pthread_create-style). The thread becomes runnable after the configured
// thread-spawn latency.
func (vm *VM) Go(name string, core int, fn func(*Thread)) *Thread {
	if core < 0 || core >= len(vm.cores) {
		core = 0
	}
	t := &Thread{
		vm:      vm,
		ID:      len(vm.threads),
		Name:    name,
		core:    vm.cores[core],
		resume:  make(chan struct{}, 1),
		fn:      fn,
		blocked: true, // a new thread is woken by its start event
	}
	vm.threads = append(vm.threads, t)
	vm.live++
	go t.main()
	vm.at(vm.now+vm.cfg.Cost.ThreadSpawn, evReady, t)
	return t
}

// makeReady queues t on its core, granting the core immediately if free.
// Must run in VM/virtual-thread context. A wake delivered while t is still
// running is saved (futex-style) and consumed by t's next block. Primitives
// wake a thread exactly once per grant, so a saved wake can never go stale.
func (vm *VM) makeReady(t *Thread) {
	if !t.blocked {
		t.wakePending = true
		return
	}
	t.blocked = false
	c := t.core
	if c.cur == nil {
		c.cur = t
		vm.at(vm.now, evResume, t)
		return
	}
	c.runq = append(c.runq, t)
	t.state = stReady
	// If the core is held by a parked spinner, boot it so the incoming
	// thread is not starved: the spinner is woken, notices the queued peer,
	// and downgrades to timesliced spinning (preemptive-OS behaviour).
	if cur := c.cur; cur.parkedOn != nil {
		cur.parkedOn.remove(cur)
		cur.parkedOn = nil
		vm.at(vm.now, evSpinWake, cur)
	}
}

// releaseCore gives up t's core and dispatches the next queued thread, if
// any, charging a context switch.
func (vm *VM) releaseCore(t *Thread) {
	c := t.core
	if c.cur != t {
		return
	}
	c.cur = nil
	if len(c.runq) > 0 {
		next := c.runq[0]
		c.runq = c.runq[1:]
		c.cur = next
		vm.at(vm.now+vm.cfg.Cost.ContextSwitch, evResume, next)
	}
}

// Thread is a virtual thread of execution. All methods must be called from
// the thread's own body function.
type Thread struct {
	vm   *VM
	ID   int
	Name string
	core *Core

	resume   chan struct{} // the token arrives here; one slot, so the sender never waits
	fn       func(*Thread)
	state    threadState
	label    string // what a stBlocked thread waits for
	finished bool

	blocked     bool     // parked off-core, waiting for makeReady
	wakePending bool     // a wake arrived while still running
	parkedOn    *WaitSet // non-nil while parked in a spin loop (core held)

	// A spinner's parked state, read by the event loop (spinWake, spinSettle).
	spinWS    *WaitSet
	spinCheck func() bool
	spinStart Time

	acc Time // accumulated small charges, folded into the next advance
}

// threadState is what dumpThreads prints for a deadlocked thread.
type threadState uint8

const (
	stNew threadState = iota
	stReady
	stRunning
	stComputing
	stPreempted
	stBlocked // followed by Thread.label
	stSpinning
)

var stateNames = [...]string{"new", "ready", "running", "computing", "preempted", "blocked:", "spinning"}

// main is the real goroutine backing the virtual thread.
func (t *Thread) main() {
	defer func() {
		if t.vm.poisoned {
			t.vm.done <- struct{}{} // to Run's unwind loop: this goroutine is gone
		}
	}()
	t.awaitToken() // first dispatch
	t.fn(t)
	t.flush()
	t.finished = true
	t.vm.live--
	t.vm.releaseCore(t)
	t.vm.dispatch(nil)
}

// awaitToken sleeps until another holder hands this thread the token. A
// thread resumed by a deadlocked Run exits instead (Goexit runs its deferred
// calls, and unlike a panic cannot be recovered by a task body).
func (t *Thread) awaitToken() {
	<-t.resume
	if t.vm.poisoned {
		runtime.Goexit()
	}
}

// yield gives up the token until an event resumes t, which runs the event loop meanwhile.
func (t *Thread) yield() { t.vm.dispatch(t) }

// Charge accrues a small cost without an immediate context interaction. The
// accumulated amount is folded into the next Compute, blocking operation, or
// Flush. Use it for cheap bookkeeping costs (uncontended lock/unlock, queue
// operations) to keep the event count low.
func (t *Thread) Charge(d Time) {
	if d > 0 {
		t.acc += d
	}
}

// flush converts accumulated charges into real virtual-time advance.
func (t *Thread) flush() {
	if t.acc > 0 {
		d := t.acc
		t.acc = 0
		t.advance(d, false)
	}
}

// Flush forces accumulated charges to take effect now. Needed before reading
// shared state whose ordering matters.
func (t *Thread) Flush() { t.flush() }

// advance occupies the core for d nanoseconds. spin selects whether the time
// counts as useful work or busy-waiting. The thread keeps core ownership.
func (t *Thread) advance(d Time, spin bool) {
	if d <= 0 {
		return
	}
	t.state = stComputing
	t.vm.at(t.vm.now+d, evResume, t)
	t.yield()
	if spin {
		t.core.Spin += d
	} else {
		t.core.Busy += d
	}
}

// Compute models d nanoseconds of computation on the thread's core. When the
// core is oversubscribed, the computation is timesliced at the machine
// quantum, paying context switches, like a preemptive OS.
func (t *Thread) Compute(d Time) {
	d += t.acc
	t.acc = 0
	q := t.vm.cfg.Quantum
	for d > 0 {
		step := d
		if len(t.core.runq) > 0 && step > q {
			step = q
		}
		t.advance(step, false)
		d -= step
		if d > 0 && len(t.core.runq) > 0 {
			t.preempt()
		}
	}
}

// preempt moves the thread to the back of its core's run queue and hands the
// core to the next ready thread, blocking until the core is regained.
func (t *Thread) preempt() {
	c := t.core
	if len(c.runq) == 0 {
		return
	}
	next := c.runq[0]
	c.runq = c.runq[1:]
	c.runq = append(c.runq, t)
	c.cur = next
	t.state = stPreempted
	t.vm.at(t.vm.now+t.vm.cfg.Cost.ContextSwitch, evResume, next)
	t.yield()
}

// Sleep blocks the thread (releasing its core) for d nanoseconds.
func (t *Thread) Sleep(d Time) {
	t.flush()
	t.vm.WakeAt(t, t.vm.now+d)
	t.Block("sleep")
}

// Block parks the thread off-core (releasing its core) under the given state
// label until another thread wakes it with VM.WakeAt. A wake that arrived
// while the thread was still running is consumed instead (futex-style saved
// wakeup).
func (t *Thread) Block(state string) {
	t.flush()
	if t.wakePending {
		t.wakePending = false
		return
	}
	t.blocked = true
	t.state, t.label = stBlocked, state
	t.vm.releaseCore(t)
	t.yield()
}

// Go spawns a child virtual thread pinned to the given core. The caller
// pays only the serial issue cost; the child's start latency overlaps with
// further parent execution (clone() returns before the child is scheduled).
func (t *Thread) Go(name string, core int, fn func(*Thread)) *Thread {
	t.Charge(t.vm.cfg.Cost.ThreadSpawnIssue)
	t.flush()
	return t.vm.Go(name, core, fn)
}

// Yield voluntarily reschedules the thread behind any queued peers on its
// core (sched_yield).
func (t *Thread) Yield() {
	t.flush()
	if len(t.core.runq) > 0 {
		t.preempt()
	}
}
