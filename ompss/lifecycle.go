package ompss

import (
	"sync"
	"sync/atomic"

	"ompssgo/internal/core"
	"ompssgo/internal/obs"
)

// cost names what the lifecycle charges to the executing thread. Natively
// every charge is free — bodies do real work and the bookkeeping takes the
// time it takes; the simulator prices each from the machine's cost model.
type cost uint8

const (
	costSpawn    cost = iota // a submission wiring n accesses; settled before the graph is read
	costDispatch             // a task popped from the scheduler
	costSteal                // a pop that found nothing
	costCompute              // n nanoseconds of computation (a body's Cost clause + footprint)
	costFinish               // completion bookkeeping; settled before Finish
	costRelease              // n successors released
	costSettle               // nothing new: what was charged so far takes effect before shared state is read
)

// parkOn is what a thread without work waits for, beside the two keys that
// are the awaited object itself: a *core.Context (taskwait) and a *core.Task
// (taskwait on).
type parkOn uint8

const (
	parkIdle   parkOn = iota // a worker between tasks
	parkDrain                // Shutdown's end-of-program barrier
	parkFinish               // a session drain, admission headroom or run-ahead room: any finish may flip it
)

// runAheadPerWorker is the default run-ahead window, in tasks per worker: a
// creator outside any task body stops creating once this many tasks per
// worker are unfinished and executes ready tasks until there is room, as the
// OmpSs runtime's creating thread does. 64 was picked by measuring 16, 64 and
// 256 (EXPERIMENTS.md, "Run-ahead window"): it keeps the backlog of live task
// records off the collector on the fine-grain workloads and binds on no cell
// of the simulated Table 1. MaxInFlight at New replaces it.
const runAheadPerWorker = 64

// clock is all that differs between native and simulated execution: what a
// clock read is, what a charge costs, and how a thread parks and is woken.
// The lifecycle below calls it unconditionally; nativeClock (native.go) and
// simClock (sim.go) implement it.
type clock interface {
	now() int64
	charge(lane int, k cost, n int64)
	// touch prices streaming bytes of key from the lane's core (warmth and
	// NUMA distance under simulation); the caller charges it as costCompute.
	touch(lane int, key any, bytes int64, write bool) int64
	// park waits, after the lane's misses-th consecutive failed pop, until
	// cond may hold or the scheduler has ready work: it may return early,
	// never late — every wake that could flip either ends it.
	park(lane int, key any, misses int, cond func() bool)
	// wake announces that done finished (nil: a submission, or stop) and n
	// tasks became ready.
	wake(done *core.Task, n int)
	lock(lane int, m *rtLock)
	unlock(lane int, m *rtLock)
	// pollCancel observes a cancellation that is delivered by polling;
	// cancelWake nudges parked threads after one that is delivered by a
	// call, from any goroutine, so they see the skip-everything state.
	pollCancel()
	cancelWake()
}

// lifecycle is the life of a task — submit → dispatch → run → finish → wait —
// written once over the shared engine (internal/core) and the clock. With
// Workers(n), n−1 dedicated workers run lanes 0..n−2 and the program's
// master thread owns lane n−1, executing tasks inside Taskwait, TaskwaitOn
// and Shutdown (OMP_NUM_THREADS counts the master).
//
// There is no lifecycle-level lock: the engine is internally decentralized —
// per-worker lock-free deques with work stealing, a sharded dependence
// tracker, atomic ready release — so submit, pop, steal and finish from
// different lanes never serialize on each other here.
type lifecycle struct {
	rt      *Runtime
	cfg     config
	clk     clock
	virtual bool

	graph *core.Graph
	sched *core.Sched

	// room reports whether the run-ahead window admits one more task (nil:
	// unbounded). Built once, so a throttled spawn allocates no predicate.
	room func() bool

	locks lockTable // Critical names and Commutative keys
	stop  atomic.Bool
	drain sync.Once
}

func newLifecycle(rt *Runtime, cfg config, clk clock, virtual bool) *lifecycle {
	l := &lifecycle{
		rt: rt, cfg: cfg, clk: clk, virtual: virtual,
		graph: core.NewGraph(),
		sched: core.NewSched(cfg.workers, cfg.schedPolicy(), cfg.seed),
	}
	window := int64(cfg.maxInFlight)
	if window == 0 {
		window = runAheadPerWorker * int64(cfg.workers)
	}
	if window > 0 {
		l.room = func() bool { return l.graph.Unfinished() < window }
	}
	l.graph.ConfigureRenaming(cfg.renamingOn())
	if rec := cfg.rec; rec != nil {
		// Attach before any worker starts: the rings and clock are published
		// to the workers by their go statements (under simulation every
		// emission happens under the machine's token, one runner at a time).
		rec.Attach(cfg.workers, l.DomainName(), virtual, clk.now)
		l.graph.SetProbe(rec)
		l.sched.SetProbe(rec)
	}
	return l
}

// DomainName names the execution domain ("native" or "sim") in traces.
func (l *lifecycle) DomainName() string {
	if l.virtual {
		return "sim"
	}
	return "native"
}

// held reports whether the run-ahead window holds the creator back. Only
// creators outside a task body are ever held (the runtime master and session
// masters): a parent blocked in a nested Taskwait occupies a slot its own
// children need, so holding nested creators could leave every slot waiting
// for a task nobody may create.
func (l *lifecycle) held(from *TC) bool {
	return from.task == nil && l.room != nil && !l.room()
}

// submit puts a spawn's task into the graph. The task takes the executing
// lane's reference on its record, dropped at the end of runTask, and one on
// its parent's, since t.Parent points into it until t finishes.
func (l *lifecycle) submit(from *TC, r *taskRec) {
	t := &r.t
	t.Hold()
	if p := r.parent; p != nil {
		p.Hold()
	}
	l.clk.pollCancel()
	if l.held(from) {
		// The counter was read ahead of the clock: settle and let waitFor
		// look again, so a window that does not bind adds no event.
		l.clk.charge(from.worker, costSettle, 0)
		l.waitFor(from, parkFinish, l.room)
	}
	l.clk.charge(from.worker, costSpawn, int64(len(t.Accesses)))
	ready := l.graph.Submit(t)
	// Submit/edge events go out before the push so the task cannot start
	// (on another lane) ahead of its own submit record in the usual case;
	// a predecessor finishing mid-submission can still reorder, which the
	// analyzer tolerates.
	obsSubmit(l.cfg.rec, from.worker, t, ready)
	if ready {
		l.sched.PushSubmit(t)
		l.clk.wake(nil, 1)
	}
}

func (l *lifecycle) workerLoop(lane int) {
	idling, stopped := false, l.stop.Load
	for misses := 0; ; {
		l.clk.pollCancel()
		t := l.sched.Pop(lane)
		if t != nil {
			if idling {
				idling = false
				l.emit(lane, obs.EvIdleExit)
			}
			misses = 0
			l.runTask(t, lane)
			continue
		}
		if !idling {
			idling = true
			l.emit(lane, obs.EvIdleEnter)
		}
		if l.stop.Load() {
			l.emit(lane, obs.EvIdleExit)
			return
		}
		l.clk.charge(lane, costSteal, 1)
		misses++
		l.clk.park(lane, parkIdle, misses, stopped)
	}
}

// emit records a lane-level event (no task) when a recorder is attached.
func (l *lifecycle) emit(lane int, k obs.Kind) {
	if rec := l.cfg.rec; rec != nil {
		rec.Emit(lane, k, 0, 0)
	}
}

// runTask takes a popped task through the rest of its life on lane, and
// drops the references submit took for it.
func (l *lifecycle) runTask(t *core.Task, lane int) {
	r := t.Owner.(*taskRec)
	l.clk.charge(lane, costDispatch, 1)
	l.graph.MarkRunning(t, lane)
	rec := l.cfg.rec
	quiet := taskQuiet(t)
	if rec != nil && !quiet {
		rec.Emit(lane, obs.EvStart, t.ID, 0)
	}
	l.clk.pollCancel()
	err := l.rt.skipReason(t)
	if err != nil {
		// Skip-release: the task finishes without running — no body, no
		// modeled compute or memory traffic — its dependents still release
		// (and inherit the error, so they skip too), so the graph always
		// drains, a cancelled one in (almost) zero virtual time.
		t.MarkSkipped()
		l.graph.CountSkipped()
		if rec != nil && !quiet {
			rec.Emit(lane, obs.EvSkip, t.ID, 0)
		}
	} else {
		// Memory-system cost of the declared footprints, priced before the
		// body against where each datum was last produced.
		var mem int64
		for i := range t.Accesses {
			a := &t.Accesses[i]
			mem += l.clk.touch(lane, a.Key, a.Bytes, a.Writes())
		}
		err = r.run() // real execution; may add Compute/Critical charges itself
		l.clk.charge(lane, costCompute, t.CPUCost+mem)
	}
	l.rt.noteTaskErr(t, err)
	l.clk.charge(lane, costFinish, 1)
	ready := l.graph.Finish(t, err)
	if rec != nil {
		// The end event and the ready events of the released successors
		// share the completion instant — one group, one clock read, one
		// sequence fetch-add for the whole site. Muted (Observe(nil))
		// sessions' tasks are filtered out before the group is sized.
		obsFinish(rec, lane, t.ID, quiet, ready)
	}
	for _, r := range ready {
		l.sched.PushReady(r, lane)
	}
	n := len(ready)
	l.clk.charge(lane, costRelease, int64(n))
	// ready may be t's own successor slot (see Graph.Finish): a retained
	// Handle must not pin the tasks released behind it.
	clear(ready)
	// Idle workers for the released tasks, and any waiter t's completion
	// may have let go.
	l.clk.wake(t, n)
	if p := r.parent; p != nil {
		p.Drop()
	}
	t.Drop()
}

// waitFor holds the calling thread until cond holds, executing ready tasks
// meanwhile — help-first in both wait modes: parking without helping
// deadlocks when every thread is a waiter (Workers(1), or a server whose
// request goroutines all reach a wait together). cond must eventually be
// flipped by task finishes or a cancellation; key says which (see parkOn).
// Taskwait, TaskwaitOn, session drain, admission backpressure, the run-ahead
// throttle and the Shutdown barrier are all this loop.
func (l *lifecycle) waitFor(from *TC, key any, cond func() bool) {
	lane := from.worker
	for misses := 0; !cond(); {
		l.clk.pollCancel()
		if t := l.sched.Pop(lane); t != nil {
			misses = 0
			l.runTask(t, lane)
			continue
		}
		misses++
		l.clk.park(lane, key, misses, cond)
	}
}

// taskwait waits until from's scope has no unfinished children, polling
// the scope's predicate, which was built once with the scope.
func (l *lifecycle) taskwait(from *TC) {
	l.emit(from.worker, obs.EvTaskwaitEnter)
	defer l.emit(from.worker, obs.EvTaskwaitExit)
	drained := from.sess.drained
	if t := from.task; t != nil {
		drained = t.Owner.(*taskRec).drained
	}
	l.waitFor(from, from.ctx, drained)
}

func (l *lifecycle) taskwaitOn(from *TC, keys []any) {
	l.emit(from.worker, obs.EvTaskwaitEnter)
	defer l.emit(from.worker, obs.EvTaskwaitExit)
	for _, k := range keys {
		l.clk.charge(from.worker, costSettle, 0)
		for _, lw := range l.graph.Writers(k) {
			l.waitFor(from, lw, lw.Finished)
			lw.Drop() // Writers held it for this wait
		}
	}
}

// critName keys a Critical section's lock in the table Commutative keys share.
type critName string

// critical runs f under the named lock: one lock, so no rank order to
// resolve and nothing allocated per call.
func (l *lifecycle) critical(from *TC, name string, f func()) {
	lane, m := from.worker, l.locks.named(name)
	l.clk.lock(lane, m)
	// Deferred so a panicking f cannot leak the lock (see commutative).
	defer l.clk.unlock(lane, m)
	f()
}

// commutative runs f holding the lock of every listed key, acquired in
// ascending rank order (see lockTable), released in reverse. Under
// simulation execution is serialized, but virtual threads still block on
// the locks, so the same ordering discipline applies.
func (l *lifecycle) commutative(from *TC, keys []any, f func()) {
	lane, held := from.worker, l.locks.resolve(keys)
	for _, m := range held {
		l.clk.lock(lane, m)
	}
	// Deferred so a panicking body (recovered into a task error above us)
	// cannot leak the locks and deadlock every later user of them.
	defer func() {
		for i := len(held) - 1; i >= 0; i-- {
			l.clk.unlock(lane, held[i])
		}
	}()
	f()
}

// shutdown is the implicit end-of-program barrier — drain every context —
// after which the worker loops are told to stop.
func (l *lifecycle) shutdown(from *TC) {
	l.drain.Do(func() {
		l.waitFor(from, parkDrain, func() bool { return l.graph.Unfinished() == 0 })
		// Nothing will read the tracker's history again: let its slots go
		// of the finished tasks, so their records go back to the pool.
		l.graph.DropHistory()
		l.stop.Store(true)
		l.clk.wake(nil, l.cfg.workers)
	})
}

// taskQuiet reports whether the task's session muted per-task observability
// (Session Observe(nil) under a recording runtime).
func taskQuiet(t *core.Task) bool {
	d := t.Domain
	return d != nil && d.Quiet
}

// sessOf returns the task's session ID for trace tagging (0 = no session).
func sessOf(t *core.Task) uint64 {
	if d := t.Domain; d != nil {
		return d.ID
	}
	return 0
}

// obsFinish records a task completion: the end event and the ready events of
// the released successors share one group (one clock read, one sequence
// fetch-add). Quiet tasks are filtered out before the group is sized, so a
// muted session contributes no events at all.
func obsFinish(rec *obs.Recorder, worker int, id uint64, quiet bool, ready []*core.Task) {
	n := 0
	if !quiet {
		n++
	}
	for _, r := range ready {
		if !taskQuiet(r) {
			n++
		}
	}
	if n == 0 {
		return
	}
	g, ok := rec.Group(worker, n)
	if !ok {
		return
	}
	if !quiet {
		g.Add(obs.EvEnd, id, 0, "")
	}
	for _, r := range ready {
		if !taskQuiet(r) {
			g.Add(obs.EvReady, r.ID, 0, "")
		}
	}
}

// obsSubmit records one task submission: the submit event (Arg = wired
// predecessor count, Sess = the owning session), one edge event per
// predecessor, and — when the task was immediately runnable — its ready
// event. The whole site shares one group (one clock read, one sequence
// fetch-add).
func obsSubmit(rec *obs.Recorder, worker int, t *core.Task, ready bool) {
	if rec == nil || taskQuiet(t) {
		return
	}
	n := 1 + len(t.Preds)
	if ready {
		n++
	}
	g, ok := rec.Group(worker, n)
	if !ok {
		return
	}
	g.AddSess(obs.EvSubmit, t.ID, uint64(len(t.Preds)), sessOf(t), t.Label)
	for _, p := range t.Preds {
		g.Add(obs.EvEdge, t.ID, p, "")
	}
	if ready {
		g.Add(obs.EvReady, t.ID, 0, "")
	}
}
