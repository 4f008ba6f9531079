package ompss

import (
	"context"
	"fmt"
	"time"

	"ompssgo/internal/core"
	"ompssgo/internal/obs"
	"ompssgo/internal/tune"
	"ompssgo/internal/vm"
	"ompssgo/machine"
)

// RunSim executes an OmpSs program on the simulated cc-NUMA machine. The
// program callback runs in the machine's master virtual thread; every task
// body executes for real (results are bit-identical to native runs) while
// virtual time advances according to declared Cost clauses, dependence
// footprints, and runtime overheads (task spawn, dispatch, dependence edges,
// idle waiting in the configured WaitMode).
//
// Workers defaults to the machine's core count. The master thread is pinned
// to core 0; dedicated workers occupy the remaining cores (wrapping —
// timesliced — if Workers exceeds Cores).
func RunSim(mc machine.Config, program func(*Runtime), opts ...Option) (machine.Stats, error) {
	return RunSimCtx(context.Background(), mc, program, opts...)
}

// RunSimCtx is RunSim bounded by a context: when ctx is cancelled, the
// simulated runtime drains its graph by skipping every task that has not
// started yet (each finishes with a *SkipError wrapping the cancellation
// cause) and the run returns ctx's error. Cancellation is observed at
// scheduling points — task dispatch, submission, and waits — which is where
// the simulated runtime polls it.
func RunSimCtx(ctx context.Context, mc machine.Config, program func(*Runtime), opts ...Option) (machine.Stats, error) {
	cfg := buildConfig(opts)
	if mc.Cores < 1 {
		mc.Cores = 1
	}
	if cfg.workers < 1 {
		cfg.workers = mc.Cores
	}
	v := vm.New(vm.Config{Cores: mc.Cores, Sockets: mc.Sockets, Seed: mc.Seed})
	b := &simBackend{
		cfg:         cfg,
		v:           v,
		cctx:        ctx,
		graph:       core.NewGraph(),
		sched:       core.NewSched(cfg.workers, cfg.schedPolicy(), cfg.seed),
		lanes:       make([]*vm.Thread, cfg.workers),
		ctxWaiters:  make(map[*core.Context][]*vm.Thread),
		taskWaiters: make(map[*core.Task][]*vm.Thread),
	}
	b.idleDone = func() bool { return b.sched.Ready() > 0 || b.stop }
	rt := &Runtime{be: b, cfg: cfg, simMode: true}
	b.rt = rt
	b.graph.ConfigureRenaming(core.Renaming{Enabled: cfg.renamingOn(), MaxVersions: cfg.renameCapN()})
	if cfg.tuningActive() {
		// Same control plane as the native backend, but fed virtual time, so
		// controller decisions are deterministic; Backoff is forced off — the
		// simulator's idle waiting is event-driven, there is no spin loop to
		// tune (documented no-op on Tuning.StealBackoff).
		b.tn = &core.Tunables{}
		b.ctl = tune.New(tune.Config{
			Workers:       cfg.workers,
			Grain:         cfg.tun.Grain.isAuto(),
			Backoff:       false,
			RenameCap:     cfg.tun.RenameCap.isAuto(),
			BaseRenameCap: cfg.renameCapN(),
			SchedStats:    b.sched.Stats,
			GraphStats:    b.graph.Stats,
			Event:         tuneEventFn(cfg.rec),
		}, b.tn, obs.NewAggregator(0))
		b.graph.SetTunables(b.tn)
		b.sched.SetTunables(b.tn)
	}
	if rec := cfg.rec; rec != nil {
		// Timestamps are the simulated machine's virtual clock; every
		// emission happens under the machine's token, one runner at a time.
		rec.Attach(cfg.workers, "sim", true, func() int64 { return int64(v.Now()) })
		b.graph.SetProbe(rec)
		b.sched.SetProbe(rec)
	}

	master := cfg.workers - 1
	for lane := 0; lane < master; lane++ {
		lane := lane
		// Workers take cores 1..; the master keeps core 0.
		coreID := 1 + lane
		if mc.Cores > 0 {
			coreID %= mc.Cores
		}
		v.Go(fmt.Sprintf("ompss-w%d", lane), coreID, func(vt *vm.Thread) {
			b.workerLoop(vt, lane)
		})
	}
	v.Go("ompss-main", 0, func(vt *vm.Thread) {
		b.lanes[master] = vt
		rt.initMain(master)
		program(rt)
		b.shutdown(rt.main)
	})

	st, err := v.Run()
	if err == nil {
		// Task failures are captured as errors (so the simulation drains
		// cleanly) and surface here as the run's error: the cancellation
		// cause if the context fired, else the first task failure. Failures
		// confined to a request session (NewSession) stay on that session's
		// error surface and do not fail the run.
		if ctx.Err() != nil {
			err = ctx.Err()
		} else if r := rt.firstErr.Load(); r != nil {
			err = r.err
		}
	}
	return machine.Stats{
		Makespan:    time.Duration(st.Time),
		Utilization: st.Utilization(),
		Occupancy:   st.Occupancy(),
		Events:      st.Events,
		Tasks:       b.graph.Stats().Finished,
	}, err
}

// simBackend drives the shared engine from virtual threads on the simulated
// machine. Execution is serialized by the machine's token, so the engine
// needs no locking here; costs are charged through the owning vm.Thread.
type simBackend struct {
	rt   *Runtime
	cfg  config
	v    *vm.VM
	cctx context.Context // RunSimCtx's context, polled at scheduling points

	graph *core.Graph
	sched *core.Sched
	lanes []*vm.Thread
	stop  bool

	// tn/ctl mirror the native backend's feedback-control plane (nil when no
	// Tuning field armed it); the controller consumes virtual execution times.
	tn  *core.Tunables
	ctl *tune.Controller

	ws          vm.WaitSet  // Polling mode: idle workers and waiters
	idleDone    func() bool // an idle worker's spin predicate: read-only, the vm's event loop calls it
	idle        []*vm.Thread
	ctxWaiters  map[*core.Context][]*vm.Thread
	taskWaiters map[*core.Task][]*vm.Thread
	condWaiters []*vm.Thread // Blocking mode: waitFor parkers, woken on any finish

	crit critSet[vm.Mutex]
	comm commTable[vm.Mutex] // per-key commutative locks, rank-ordered
}

func (b *simBackend) thread(from *TC) *vm.Thread { return b.lanes[from.worker] }

// pollCtx checks the run's context at a scheduling point and switches the
// runtime into cancellation drain when it fired.
func (b *simBackend) pollCtx() {
	if b.cctx != nil && b.cctx.Err() != nil && b.rt.cancelCause() == nil {
		b.rt.cancelWith(context.Cause(b.cctx))
	}
}

// queueOp scales a scheduler-queue cost by the contention factor: the
// central ready-queue lock serializes under many threads (a known
// scalability limit of 2012-era task runtimes).
func (b *simBackend) queueOp(base vm.Time) vm.Time {
	cm := b.v.Cost()
	return base + vm.Time(float64(base)*cm.QueueContention*float64(b.cfg.workers-1))
}

func (b *simBackend) workerLoop(vt *vm.Thread, lane int) {
	b.lanes[lane] = vt
	cm := b.v.Cost()
	rec := b.cfg.rec
	idling := false
	for {
		b.pollCtx()
		t := b.sched.Pop(lane)
		if t == nil {
			if !idling {
				idling = true
				if rec != nil {
					rec.Emit(lane, obs.EvIdleEnter, 0, 0)
				}
			}
			if b.stop {
				if rec != nil {
					rec.Emit(lane, obs.EvIdleExit, 0, 0)
				}
				return
			}
			vt.Charge(cm.StealAttempt)
			b.idleWait(vt)
			continue
		}
		if idling {
			idling = false
			if rec != nil {
				rec.Emit(lane, obs.EvIdleExit, 0, 0)
			}
		}
		vt.Charge(b.queueOp(cm.TaskDispatch))
		b.graph.MarkRunning(t, lane)
		b.runTaskSim(vt, t, lane)
	}
}

func (b *simBackend) idleWait(vt *vm.Thread) {
	if b.cfg.wait == Polling {
		vt.SpinUntil(&b.ws, b.idleDone)
		return
	}
	b.idle = append(b.idle, vt)
	vt.Block("ompss-idle")
}

// wakeIdle releases up to n blocked idle workers (Blocking mode) or all
// polling waiters.
func (b *simBackend) wakeIdle(n int) {
	if b.cfg.wait == Polling {
		b.ws.WakeAll(b.v)
		return
	}
	cm := b.v.Cost()
	for i := 0; i < n && len(b.idle) > 0; i++ {
		t := b.idle[0]
		b.idle = b.idle[1:]
		b.v.WakeAt(t, b.v.Now()+cm.CondWake)
	}
}

func (b *simBackend) runTaskSim(vt *vm.Thread, t *core.Task, lane int) {
	cm := b.v.Cost()
	rec := b.cfg.rec
	quiet := taskQuiet(t)
	if rec != nil && !quiet {
		rec.Emit(lane, obs.EvStart, t.ID, 0)
	}
	b.pollCtx()
	var err error
	var t0 int64
	skipped := false
	if skip := b.rt.skipReason(t); skip != nil {
		// Skip-release: no body, no modeled compute or memory traffic —
		// a cancelled graph drains in (almost) zero virtual time.
		t.MarkSkipped()
		b.graph.CountSkipped()
		if rec != nil && !quiet {
			rec.Emit(lane, obs.EvSkip, t.ID, 0)
		}
		err = skip
		skipped = true
	} else {
		if b.ctl != nil {
			t0 = int64(b.v.Now())
		}
		// Memory-system cost of the task's declared footprints, evaluated
		// against where each datum was last produced (warmth/NUMA model).
		var mem vm.Time
		for _, a := range t.Accesses {
			mem += vt.TouchCost(a.Key, a.Bytes, a.Writes())
		}
		err = t.Owner.(*taskRec).run() // real execution; may add Compute/Critical charges itself
		vt.Compute(vm.Time(t.CPUCost) + mem)
	}
	b.rt.noteTaskErr(t, err)
	vt.Charge(cm.TaskFinish)
	vt.Flush()
	ready := b.graph.Finish(t, err)
	if b.ctl != nil && !skipped {
		// The flush above advanced the virtual clock past the task's modeled
		// compute/memory time, so Now()−t0 is the task's virtual execution
		// time — the controller's decisions are deterministic under the
		// serialized event loop.
		end := int64(b.v.Now())
		b.ctl.TaskDone(t.Label, end-t0, t.Iters, t.Renamed(), t.RenameFallback())
	}
	if rec != nil {
		// Stamped after the flush so End−Start covers the task's modeled
		// compute/memory time (Finish adds no virtual time); end and the
		// successors' ready events share the completion instant.
		obsFinish(rec, lane, t.ID, quiet, ready)
	}
	for _, r := range ready {
		b.sched.PushReady(r, lane)
	}
	if len(ready) > 0 {
		vt.Charge(cm.DepEdge * vm.Time(len(ready)))
	}
	b.afterFinish(t, len(ready))
	clear(ready) // may be t's own successor slot (see Graph.Finish)
}

// afterFinish wakes whoever may be unblocked by t's completion: idle workers
// (released tasks), taskwaiters on a drained context, taskwait-on waiters.
func (b *simBackend) afterFinish(t *core.Task, released int) {
	if b.cfg.wait == Polling {
		b.ws.WakeAll(b.v)
		return
	}
	cm := b.v.Cost()
	b.wakeIdle(released)
	if b.graph.Unfinished() == 0 {
		// End-of-work edge: wake everything parked (including a master
		// parked in the shutdown drain), not just `released` workers.
		b.wakeIdle(len(b.idle))
	}
	if t.Parent != nil && t.Parent.Pending() == 0 {
		for _, w := range b.ctxWaiters[t.Parent] {
			b.v.WakeAt(w, b.v.Now()+cm.CondWake)
		}
		delete(b.ctxWaiters, t.Parent)
	}
	for _, w := range b.taskWaiters[t] {
		b.v.WakeAt(w, b.v.Now()+cm.CondWake)
	}
	delete(b.taskWaiters, t)
	// waitFor parkers re-check their predicate on every completion (session
	// drains and admission headroom can open on any finish).
	for _, w := range b.condWaiters {
		b.v.WakeAt(w, b.v.Now()+cm.CondWake)
	}
	b.condWaiters = b.condWaiters[:0]
}

// waitFor parks the calling virtual thread until cond holds, help-executing
// ready tasks meanwhile — the simulated counterpart of the native backend's
// waitFor (session drains and admission backpressure use it).
func (b *simBackend) waitFor(from *TC, cond func() bool) {
	vt := b.thread(from)
	cm := b.v.Cost()
	for !cond() {
		b.pollCtx()
		if t := b.sched.Pop(from.worker); t != nil {
			vt.Charge(b.queueOp(cm.TaskDispatch))
			b.graph.MarkRunning(t, from.worker)
			b.runTaskSim(vt, t, from.worker)
			continue
		}
		if b.cfg.wait == Polling {
			vt.SpinUntil(&b.ws, func() bool {
				return cond() || b.sched.Ready() > 0
			})
		} else {
			b.condWaiters = append(b.condWaiters, vt)
			vt.Block("ompss-waitfor")
		}
	}
}

func (b *simBackend) submit(from *TC, t *core.Task) {
	b.pollCtx()
	vt := b.thread(from)
	cm := b.v.Cost()
	vt.Charge(b.queueOp(cm.TaskSpawn) + cm.DepEdge*vm.Time(len(t.Accesses)))
	vt.Flush()
	ready := b.graph.Submit(t)
	obsSubmit(b.cfg.rec, from.worker, t, ready)
	if ready {
		b.sched.PushSubmit(t)
		b.wakeIdle(1)
	}
}

func (b *simBackend) taskwait(from *TC, ctx *core.Context) {
	vt := b.thread(from)
	cm := b.v.Cost()
	if rec := b.cfg.rec; rec != nil {
		rec.Emit(from.worker, obs.EvTaskwaitEnter, 0, 0)
		defer rec.Emit(from.worker, obs.EvTaskwaitExit, 0, 0)
	}
	for ctx.Pending() > 0 {
		b.pollCtx()
		if t := b.sched.Pop(from.worker); t != nil {
			vt.Charge(b.queueOp(cm.TaskDispatch))
			b.graph.MarkRunning(t, from.worker)
			b.runTaskSim(vt, t, from.worker)
			continue
		}
		if b.cfg.wait == Polling {
			vt.SpinUntil(&b.ws, func() bool {
				return b.sched.Ready() > 0 || ctx.Pending() == 0
			})
		} else {
			b.ctxWaiters[ctx] = append(b.ctxWaiters[ctx], vt)
			vt.Block("taskwait")
		}
	}
}

func (b *simBackend) taskwaitOn(from *TC, keys []any) {
	vt := b.thread(from)
	if rec := b.cfg.rec; rec != nil {
		rec.Emit(from.worker, obs.EvTaskwaitEnter, 0, 0)
		defer rec.Emit(from.worker, obs.EvTaskwaitExit, 0, 0)
	}
	for _, k := range keys {
		vt.Flush()
		for _, lw := range b.graph.Writers(k) {
			b.waitTask(vt, from, lw)
		}
	}
}

// waitTask blocks (or help-executes, in polling mode) until lw finishes.
func (b *simBackend) waitTask(vt *vm.Thread, from *TC, lw *core.Task) {
	cm := b.v.Cost()
	for !lw.Finished() {
		if b.cfg.wait == Polling {
			if t := b.sched.Pop(from.worker); t != nil {
				vt.Charge(b.queueOp(cm.TaskDispatch))
				b.graph.MarkRunning(t, from.worker)
				b.runTaskSim(vt, t, from.worker)
				continue
			}
			vt.SpinUntil(&b.ws, func() bool {
				return lw.Finished() || b.sched.Ready() > 0
			})
		} else {
			b.taskWaiters[lw] = append(b.taskWaiters[lw], vt)
			vt.Block("taskwait-on")
		}
	}
}

func (b *simBackend) critical(from *TC, name string, f func()) {
	vt := b.thread(from)
	l := b.crit.get(name)
	vt.Lock(l)
	// Deferred so a panicking body cannot leak the named lock (see the
	// native backend's critical).
	defer vt.Unlock(l)
	f()
}

// commutative runs f holding the per-key locks of every listed key in
// ascending rank order (see commTable for the deadlock-freedom argument).
// The simulator is serialized, but virtual threads still block on
// vm.Mutex, so the same ordering discipline applies.
func (b *simBackend) commutative(from *TC, keys []any, f func()) {
	vt := b.thread(from)
	held := b.comm.resolve(keys)
	for _, l := range held {
		vt.Lock(&l.mu)
	}
	// Deferred so a panicking body (recovered into a task error above us)
	// cannot leak the locks and deadlock later commutative tasks.
	defer func() {
		for i := len(held) - 1; i >= 0; i-- {
			vt.Unlock(&held[i].mu)
		}
	}()
	f()
}

func (b *simBackend) compute(from *TC, d time.Duration) {
	if d > 0 {
		b.thread(from).Compute(vm.Time(d))
	}
}

func (b *simBackend) touch(from *TC, key any, bytes int64, write bool) {
	vt := b.thread(from)
	vt.Compute(vt.TouchCost(key, bytes, write))
}

// core.Backend seam (see internal/core/backend.go).
func (b *simBackend) DomainName() string          { return "sim" }
func (b *simBackend) Deps() *core.Graph           { return b.graph }
func (b *simBackend) GraphStats() core.GraphStats { return b.graph.Stats() }

var _ core.Backend = (*simBackend)(nil)

// cancelWake is a no-op for the simulator: the cancellation flag is polled
// at scheduling points on the simulation's own goroutine, and waking vm
// threads from a foreign goroutine would race the event loop.
func (b *simBackend) cancelWake() {}

func (b *simBackend) shutdown(from *TC) {
	if b.stop {
		return
	}
	vt := b.thread(from)
	cm := b.v.Cost()
	// Implicit end-of-program barrier across every context.
	for b.graph.Unfinished() > 0 {
		if t := b.sched.Pop(from.worker); t != nil {
			vt.Charge(b.queueOp(cm.TaskDispatch))
			b.graph.MarkRunning(t, from.worker)
			b.runTaskSim(vt, t, from.worker)
			continue
		}
		if b.cfg.wait == Polling {
			vt.SpinUntil(&b.ws, func() bool {
				return b.sched.Ready() > 0 || b.graph.Unfinished() == 0
			})
		} else {
			// Reuse the taskwait machinery: park until any finish.
			b.idle = append(b.idle, vt)
			vt.Block("shutdown-drain")
		}
	}
	b.stop = true
	// Release every idle worker so the worker loops can observe stop.
	if b.cfg.wait == Polling {
		b.ws.WakeAll(b.v)
	} else {
		b.wakeIdle(len(b.idle))
	}
}

func (b *simBackend) tuner() *tune.Controller { return b.ctl }

func (b *simBackend) stats() RunStats {
	return RunStats{Graph: b.graph.Stats(), Sched: b.sched.Stats(), Labels: labelStatsOf(b.ctl)}
}
