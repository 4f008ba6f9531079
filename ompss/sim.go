package ompss

import (
	"context"
	"fmt"
	"math"
	"time"

	"ompssgo/internal/core"
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
	v := vm.New(vm.Config{Cores: mc.Cores, Sockets: mc.Sockets})
	c := &simClock{
		v: v, cctx: ctx, polling: cfg.wait == Polling,
		lanes:   make([]*vm.Thread, cfg.workers),
		waiters: make(map[any][]*vm.Thread),
	}
	rt := &Runtime{cfg: cfg, simMode: true}
	rt.lc = newLifecycle(rt, cfg, c, true)
	c.l = rt.lc
	c.idle = func() bool { return c.l.stop.Load() || c.l.sched.Ready() > 0 }

	master := cfg.workers - 1
	for lane := 0; lane < master; lane++ {
		// Workers take cores 1..; the master keeps core 0.
		v.Go(fmt.Sprintf("ompss-w%d", lane), (1+lane)%mc.Cores, func(vt *vm.Thread) {
			c.lanes[lane] = vt
			rt.lc.workerLoop(lane)
		})
	}
	v.Go("ompss-main", 0, func(vt *vm.Thread) {
		c.lanes[master] = vt
		rt.initMain(master)
		program(rt)
		rt.lc.shutdown(rt.main)
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
		Tasks:       rt.lc.graph.Stats().Finished,
	}, err
}

// simClock runs the lifecycle on the virtual threads of the simulated
// machine. Execution is serialized by the machine's token, so nothing here
// locks; every cost is charged through the lane's vm.Thread.
type simClock struct {
	l       *lifecycle
	v       *vm.VM
	cctx    context.Context // RunSimCtx's context, polled at scheduling points
	polling bool
	lanes   []*vm.Thread

	// Polling mode: every idle worker and waiter spins on ws. idle is the
	// poll of a worker between tasks — stopped, or ready work — built once:
	// the futile wake of an idle spinner is the simulator's commonest event.
	ws   vm.WaitSet
	idle func() bool
	// Blocking mode: who is parked off-core, by what wakes them — parkIdle
	// (released work), a *core.Context (it drained), a *core.Task (it
	// finished), parkFinish (any finish). Waking each list only on its own
	// event is what a condition variable per wait reason costs: CondWake per
	// thread actually let go, and no thundering herd the model would have
	// to price.
	waiters map[any][]*vm.Thread
}

func (c *simClock) now() int64 { return int64(c.v.Now()) }

// queueOp scales a scheduler-queue cost by the contention factor: the
// central ready-queue lock serializes under many threads (a known
// scalability limit of 2012-era task runtimes). The native scheduler has
// that lock too: core.Sched's shared ready queue is one mutex.
func (c *simClock) queueOp(base vm.Time) vm.Time {
	return base + vm.Time(float64(base)*c.v.Cost().QueueContention*float64(len(c.lanes)-1))
}

func (c *simClock) charge(lane int, k cost, n int64) {
	vt, cm := c.lanes[lane], c.v.Cost()
	switch k {
	case costSpawn:
		vt.Charge(c.queueOp(cm.TaskSpawn) + cm.DepEdge*vm.Time(n))
		vt.Flush()
	case costDispatch:
		vt.Charge(c.queueOp(cm.TaskDispatch))
	case costSteal:
		vt.Charge(cm.StealAttempt)
	case costCompute:
		vt.Compute(vm.Time(n))
	case costFinish:
		vt.Charge(cm.TaskFinish)
		vt.Flush()
	case costRelease:
		vt.Charge(cm.DepEdge * vm.Time(n))
	case costSettle:
		vt.Flush()
	}
}

func (c *simClock) touch(lane int, key any, bytes int64, write bool) int64 {
	return int64(c.lanes[lane].TouchCost(key, bytes, write))
}

var parkLabels = [...]string{parkIdle: "ompss-idle", parkDrain: "shutdown-drain", parkFinish: "ompss-waitfor"}

func (c *simClock) park(lane int, key any, _ int, cond func() bool) {
	vt := c.lanes[lane]
	if c.polling {
		poll := c.idle
		if key != parkIdle {
			poll = func() bool { return cond() || c.l.sched.Ready() > 0 }
		}
		vt.SpinUntil(&c.ws, poll)
		return
	}
	var label string
	switch k := key.(type) {
	case *core.Context:
		label = "taskwait"
	case *core.Task:
		label = "taskwait-on"
	case parkOn:
		label = parkLabels[k]
		if k == parkDrain {
			// The draining master waits as an idle worker does: for released
			// work, or the end-of-work edge.
			key = parkIdle
		}
	}
	c.waiters[key] = append(c.waiters[key], vt)
	vt.Block(label)
}

func (c *simClock) wake(done *core.Task, n int) {
	if c.polling {
		c.ws.WakeAll(c.v)
		return
	}
	c.release(parkIdle, n)
	if done == nil {
		return
	}
	if c.l.graph.Unfinished() == 0 {
		// End-of-work edge: wake everything parked (including a master
		// parked in the shutdown drain), not just n workers.
		c.release(parkIdle, math.MaxInt)
	}
	if p := done.Parent; p != nil && p.Pending() == 0 {
		c.release(p, math.MaxInt)
	}
	c.release(done, math.MaxInt)
	c.release(parkFinish, math.MaxInt)
}

// release wakes up to n of the threads parked on key, oldest first, each
// after the machine's CondWake latency.
func (c *simClock) release(key any, n int) {
	q := c.waiters[key]
	n = min(n, len(q))
	for _, vt := range q[:n] {
		c.v.WakeAt(vt, c.v.Now()+c.v.Cost().CondWake)
	}
	if n == len(q) {
		delete(c.waiters, key)
	} else {
		c.waiters[key] = q[n:]
	}
}

func (c *simClock) lock(lane int, m *rtLock)   { c.lanes[lane].Lock(&m.virt) }
func (c *simClock) unlock(lane int, m *rtLock) { c.lanes[lane].Unlock(&m.virt) }

// pollCancel checks the run's context at a scheduling point and switches the
// runtime into cancellation drain when it fired.
func (c *simClock) pollCancel() {
	if c.cctx.Err() != nil && c.l.rt.cancelCause() == nil {
		c.l.rt.cancelWith(context.Cause(c.cctx))
	}
}

// cancelWake is a no-op: the cancellation flag is polled at scheduling
// points on the simulation's own goroutine, and waking vm threads from a
// foreign goroutine would race the event loop.
func (c *simClock) cancelWake() {}
