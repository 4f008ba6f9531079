package ompss

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ompssgo/internal/core"
	"ompssgo/internal/obs"
	"ompssgo/internal/tune"
)

// nativeBackend executes tasks on goroutine workers. With Workers(n), n−1
// dedicated workers run lanes 0..n−2; the program's master thread owns lane
// n−1 and helps execute tasks inside Taskwait/TaskwaitOn/Shutdown, matching
// the OmpSs thread model (OMP_NUM_THREADS counts the master).
//
// There is no backend-level engine lock: the engine (internal/core, shared
// with the simulated backend) is internally decentralized — per-worker
// lock-free deques with work stealing, a sharded dependence tracker, and
// atomic ready release — so submit, pop, steal, and finish from different
// lanes proceed without serializing on each other. The only backend
// synchronization is the Blocking-mode idle gate, a monitor that idle
// workers and taskwaiters park on; Polling mode (the OmpSs default) never
// touches it.
type nativeBackend struct {
	rt  *Runtime
	cfg config

	graph *core.Graph
	sched *core.Sched
	stop  atomic.Bool
	gate  idleGate // Blocking mode: idle workers and taskwaiters

	// tn/ctl are the feedback-control plane (nil when no Tuning field
	// armed it): ctl consumes measured task completions and writes
	// setpoints into tn, which the graph's rename-cap check and the
	// polling spinner read. tn may also be non-nil alone, carrying a
	// pinned StealBackoff without a controller.
	tn  *core.Tunables
	ctl *tune.Controller

	wg    sync.WaitGroup
	crit  critSet[sync.Mutex]
	epoch time.Time
	comm  commTable[sync.Mutex] // per-key commutative locks, rank-ordered

	shutdownOnce sync.Once
}

// idleGate parks Blocking-mode threads between work. The sequence number
// makes sleeps race-free without holding any lock on the work path: a
// would-be sleeper takes a ticket, re-checks for work, and sleeps only
// while the sequence is unchanged; every wake bumps the sequence, so a wake
// that lands between the ticket and the sleep turns the sleep into a no-op.
type idleGate struct {
	mu   sync.Mutex
	cond *sync.Cond
	seq  atomic.Uint64 // atomic so ticket() stays off the mutex on the hot path
}

func (g *idleGate) init() { g.cond = sync.NewCond(&g.mu) }

func (g *idleGate) ticket() uint64 { return g.seq.Load() }

func (g *idleGate) wait(ticket uint64) {
	g.mu.Lock()
	for g.seq.Load() == ticket {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// wake bumps the sequence under the monitor lock and broadcasts. Broadcast
// (not Signal) is deliberate: workers and taskwaiters share the condvar,
// and a Signal could wake a waiter that cannot consume the event.
func (g *idleGate) wake() {
	g.mu.Lock()
	g.seq.Add(1)
	g.cond.Broadcast()
	g.mu.Unlock()
}

// spinner is the Polling-mode idle throttle: a thread that keeps missing
// yields its slice for a while, then sleeps with linearly growing duration
// (capped at 100µs). Without it, oversubscribed polling threads — 32 lanes
// on a 2-core host — spin the cores bare and starve the lanes doing real
// work; with it, release latency stays in the tens of microseconds, which
// is the polling-vs-blocking gap the paper's §4 measures.
//
// With a Tunables block installed (tn non-nil), the yield budget and sleep
// cap are read per miss from the controller's setpoints — one atomic load
// each on the idle path only — so Tuning{StealBackoff: Auto} can deepen
// the backoff when the steal matrix reports mostly failed probes.
type spinner struct {
	misses int
	tn     *core.Tunables
}

const (
	spinYields     = 64
	spinSleepCapNS = 100_000
)

func (s *spinner) hit() { s.misses = 0 }

func (s *spinner) miss() {
	yields, capNS := spinYields, int64(spinSleepCapNS)
	if tn := s.tn; tn != nil {
		if y := tn.SpinYields.Load(); y > 0 {
			yields = int(y)
		}
		if c := tn.SleepCapNS.Load(); c > 0 {
			capNS = c
		}
	}
	s.misses++
	if s.misses <= yields {
		runtime.Gosched()
		return
	}
	d := time.Duration(s.misses-yields) * time.Microsecond
	if d > time.Duration(capNS) {
		d = time.Duration(capNS)
	}
	time.Sleep(d)
}

func newNativeBackend(rt *Runtime, cfg config) *nativeBackend {
	b := &nativeBackend{
		rt:    rt,
		cfg:   cfg,
		graph: core.NewGraph(),
		sched: core.NewSched(cfg.workers, cfg.schedPolicy(), cfg.seed),
		epoch: time.Now(),
	}
	b.graph.ConfigureRenaming(core.Renaming{Enabled: cfg.renamingOn(), MaxVersions: cfg.renameCapN()})
	if cfg.tuningActive() || cfg.tun.StealBackoff.isSet() {
		b.tn = &core.Tunables{}
		if v, ok := cfg.tun.StealBackoff.value(); ok && v > 0 {
			// Pinned backoff: the sleep cap is set once and no loop moves it.
			b.tn.SleepCapNS.Store(int64(v) * 1000)
		}
		if cfg.tuningActive() {
			b.ctl = tune.New(tune.Config{
				Workers:       cfg.workers,
				Grain:         cfg.tun.Grain.isAuto(),
				Backoff:       cfg.tun.StealBackoff.isAuto(),
				RenameCap:     cfg.tun.RenameCap.isAuto(),
				BaseRenameCap: cfg.renameCapN(),
				SchedStats:    b.sched.Stats,
				GraphStats:    b.graph.Stats,
				Event:         tuneEventFn(cfg.rec),
			}, b.tn, obs.NewAggregator(0))
		}
		b.graph.SetTunables(b.tn)
		b.sched.SetTunables(b.tn)
	}
	if rec := cfg.rec; rec != nil {
		// Attach before any worker starts: the rings and clock are
		// published to the worker goroutines by their go statements.
		epoch := b.epoch
		rec.Attach(cfg.workers, "native", false, func() int64 { return int64(time.Since(epoch)) })
		b.graph.SetProbe(rec)
		b.sched.SetProbe(rec)
	}
	b.gate.init()
	return b
}

func (b *nativeBackend) masterLane() int { return b.cfg.workers - 1 }

func (b *nativeBackend) start() {
	for lane := 0; lane < b.cfg.workers-1; lane++ {
		b.wg.Add(1)
		go b.workerLoop(lane)
	}
}

func (b *nativeBackend) workerLoop(lane int) {
	defer b.wg.Done()
	blocking := b.cfg.wait == Blocking
	rec := b.cfg.rec
	idle := spinner{tn: b.tn}
	idling := false
	for {
		var ticket uint64
		if blocking {
			ticket = b.gate.ticket()
		}
		t := b.sched.Pop(lane)
		if t == nil {
			if !idling {
				idling = true
				if rec != nil {
					rec.Emit(lane, obs.EvIdleEnter, 0, 0)
				}
			}
			if b.stop.Load() {
				if rec != nil {
					rec.Emit(lane, obs.EvIdleExit, 0, 0)
				}
				return
			}
			if blocking {
				b.gate.wait(ticket)
			} else {
				idle.miss()
			}
			continue
		}
		if idling {
			idling = false
			if rec != nil {
				rec.Emit(lane, obs.EvIdleExit, 0, 0)
			}
		}
		idle.hit()
		b.graph.MarkRunning(t, lane)
		b.runTask(t, lane)
	}
}

func (b *nativeBackend) runTask(t *core.Task, lane int) {
	rec := b.cfg.rec
	quiet := taskQuiet(t)
	if rec != nil && !quiet {
		rec.Emit(lane, obs.EvStart, t.ID, 0)
	}
	var err error
	if skip := b.rt.skipReason(t); skip != nil {
		// Skip-release: the task finishes without running, its dependents
		// still release (and inherit the error under SkipDependents), so
		// the graph always drains.
		t.MarkSkipped()
		b.graph.CountSkipped()
		if rec != nil && !quiet {
			rec.Emit(lane, obs.EvSkip, t.ID, 0)
		}
		err = skip
	} else if b.ctl == nil {
		err = t.Owner.(*taskRec).run()
	} else {
		// Feed the controller with the task's measured execution time and
		// rename attribution (settled at submission); every TickEvery-th
		// call runs a control tick inline on this lane. Allocation-free
		// (asserted by the alloc-budget suite) so tuning never perturbs
		// what it measures — and ahead of Finish, so whoever a taskwait
		// lets go already finds the task in the label aggregates.
		t0 := time.Since(b.epoch)
		err = t.Owner.(*taskRec).run()
		b.ctl.TaskDone(t.Label, int64(time.Since(b.epoch)-t0), t.Iters, t.Renamed(), t.RenameFallback())
	}
	b.rt.noteTaskErr(t, err)
	ready := b.graph.Finish(t, err)
	if rec != nil {
		// The end event and the ready events of the released successors
		// share the completion instant — one group, one clock read, one
		// sequence fetch-add for the whole site. Muted (Observe(nil))
		// sessions' tasks are filtered out before the group is sized.
		obsFinish(rec, lane, t.ID, quiet, ready)
	}
	for _, r := range ready {
		b.sched.PushReady(r, lane)
	}
	// ready may be t's own successor slot (see Graph.Finish): a retained
	// Handle must not pin the tasks released behind it.
	clear(ready)
	if b.cfg.wait == Blocking {
		// Wake idle workers for the released tasks and any taskwaiter
		// whose context may have drained.
		b.gate.wake()
	}
}

// helpOne lets the calling thread execute one ready task, reporting whether
// it found any.
func (b *nativeBackend) helpOne(lane int) bool {
	t := b.sched.Pop(lane)
	if t == nil {
		return false
	}
	b.graph.MarkRunning(t, lane)
	b.runTask(t, lane)
	return true
}

func (b *nativeBackend) submit(from *TC, t *core.Task) {
	ready := b.graph.Submit(t)
	// Submit/edge events go out before the push so the task cannot start
	// (on another lane) ahead of its own submit record in the usual case;
	// a predecessor finishing mid-submission can still reorder, which the
	// analyzer tolerates.
	obsSubmit(b.cfg.rec, from.worker, t, ready)
	if ready {
		b.sched.PushSubmit(t)
		if b.cfg.wait == Blocking {
			b.gate.wake()
		}
	}
}

// tuneEventFn bridges the feedback controller's setpoint moves into the
// observability stream: every actual move becomes an EvTune event (Label =
// the loop name, Arg = old value, Task = new value) on the no-lane ring.
// Nil recorder → nil hook, so an untraced run pays nothing. The loop names
// are constants and EmitLabel allocates nothing, keeping the tick path
// within its zero-alloc budget. Shared by both backends.
func tuneEventFn(rec *obs.Recorder) func(loop string, old, new int64) {
	if rec == nil {
		return nil
	}
	return func(loop string, old, new int64) {
		rec.EmitLabel(-1, obs.EvTune, uint64(new), uint64(old), loop)
	}
}

// taskQuiet reports whether the task's session muted per-task observability
// (Session Observe(nil) under a recording runtime). Shared by both backends.
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
// muted session contributes no events at all. Shared by both backends.
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
// fetch-add). Shared by both backends.
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

func (b *nativeBackend) taskwait(from *TC, ctx *core.Context) {
	if rec := b.cfg.rec; rec != nil {
		rec.Emit(from.worker, obs.EvTaskwaitEnter, 0, 0)
		defer rec.Emit(from.worker, obs.EvTaskwaitExit, 0, 0)
	}
	idle := spinner{tn: b.tn}
	for ctx.Pending() > 0 {
		if b.helpOne(from.worker) {
			idle.hit()
			continue
		}
		if b.cfg.wait == Blocking {
			ticket := b.gate.ticket()
			if ctx.Pending() > 0 && b.sched.Ready() == 0 {
				b.gate.wait(ticket)
			}
		} else {
			idle.miss()
		}
	}
}

// waitFor parks the calling thread until cond holds, executing ready tasks
// meanwhile (the same help-first discipline as taskwait, generalized to an
// arbitrary predicate — session drains and admission backpressure use it).
// cond must eventually hold through task completions or a cancellation;
// every task finish and cancelWake re-checks it via the gate sequence.
func (b *nativeBackend) waitFor(from *TC, cond func() bool) {
	idle := spinner{tn: b.tn}
	for !cond() {
		if b.helpOne(from.worker) {
			idle.hit()
			continue
		}
		if b.cfg.wait == Blocking {
			ticket := b.gate.ticket()
			if !cond() && b.sched.Ready() == 0 {
				b.gate.wait(ticket)
			}
		} else {
			idle.miss()
		}
	}
}

func (b *nativeBackend) taskwaitOn(from *TC, keys []any) {
	if rec := b.cfg.rec; rec != nil {
		rec.Emit(from.worker, obs.EvTaskwaitEnter, 0, 0)
		defer rec.Emit(from.worker, obs.EvTaskwaitExit, 0, 0)
	}
	for _, k := range keys {
		for _, lw := range b.graph.Writers(k) {
			// Help-first in both wait modes: parking on the task's Done
			// channel without helping deadlocks when every OS thread is a
			// waiter (workers=1, or a server whose request goroutines all
			// reach a taskwait-on together).
			b.waitFor(from, lw.Finished)
		}
	}
}

func (b *nativeBackend) critical(from *TC, name string, f func()) {
	l := b.crit.get(name)
	l.Lock()
	// Deferred so a panicking body (recovered into a task error above us)
	// cannot leak the named lock and deadlock every later Critical user —
	// the same discipline commutative uses.
	defer l.Unlock()
	f()
}

// commutative runs f holding the per-key locks of every listed key,
// acquired in ascending rank order (see commTable), released in reverse.
func (b *nativeBackend) commutative(from *TC, keys []any, f func()) {
	locks := b.comm.resolve(keys)
	for _, l := range locks {
		l.mu.Lock()
	}
	// Deferred so a panicking body (recovered into a task error above us)
	// cannot leak the locks and deadlock later commutative tasks.
	defer func() {
		for i := len(locks) - 1; i >= 0; i-- {
			locks[i].mu.Unlock()
		}
	}()
	f()
}

func (b *nativeBackend) compute(*TC, time.Duration)  {} // native bodies do real work
func (b *nativeBackend) touch(*TC, any, int64, bool) {} // native memory is real

// core.Backend seam (see internal/core/backend.go).
func (b *nativeBackend) DomainName() string          { return "native" }
func (b *nativeBackend) Deps() *core.Graph           { return b.graph }
func (b *nativeBackend) GraphStats() core.GraphStats { return b.graph.Stats() }

var _ core.Backend = (*nativeBackend)(nil)

// cancelWake nudges Blocking-mode parked threads so they re-check for work
// after a cancellation put the runtime into skip mode. Safe from any
// goroutine (context.AfterFunc fires on a timer goroutine).
func (b *nativeBackend) cancelWake() {
	if b.cfg.wait == Blocking {
		b.gate.wake()
	}
}

func (b *nativeBackend) shutdown(from *TC) {
	b.shutdownOnce.Do(func() {
		// Implicit end-of-program barrier: drain every context.
		idle := spinner{tn: b.tn}
		for b.graph.Unfinished() > 0 {
			if b.helpOne(from.worker) {
				idle.hit()
			} else {
				idle.miss()
			}
		}
		b.stop.Store(true)
		if b.cfg.wait == Blocking {
			b.gate.wake()
		}
		b.wg.Wait()
	})
}

func (b *nativeBackend) tuner() *tune.Controller { return b.ctl }

func (b *nativeBackend) stats() RunStats {
	return RunStats{Graph: b.graph.Stats(), Sched: b.sched.Stats(), Labels: labelStatsOf(b.ctl)}
}
