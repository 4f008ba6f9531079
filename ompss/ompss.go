// Package ompss implements the OpenMP Superscalar (OmpSs) task-dataflow
// programming model as a Go library.
//
// OmpSs extends OpenMP with the StarSs dependence clauses: functions are
// annotated as tasks whose arguments carry input/output/inout directions;
// calls add nodes to a task graph instead of executing immediately, and the
// runtime resolves dependences and schedules ready tasks onto worker
// threads. This package is a from-scratch reproduction of that model as
// evaluated in Andersch, Chi & Juurlink, "Programming Parallel Embedded and
// Consumer Applications in OpenMP Superscalar" (PPoPP 2012): the pragma
//
//	#pragma omp task input(*a) inout(*b) output(*c)
//	work(a, b, c);
//
// becomes
//
//	rt.Task(func(tc *ompss.TC) { work(a, b, c) },
//	        ompss.In(a), ompss.InOut(b), ompss.Out(c))
//
// Two execution backends share the same dependence tracker and scheduler
// (internal/core):
//
//   - New creates a native runtime executing on goroutine workers.
//   - RunSim / RunSimCtx execute a program on a simulated cc-NUMA machine
//     (package machine), reproducing the paper's 1–32 core sweep on any
//     host.
//
// On top of the pragma-shaped clause surface, the API is built around two
// first-class types:
//
//   - *Datum, a registered data handle (Runtime.Register): the key is
//     interned once into its dependence record, so clauses built from the
//     handle reach the record with no lookup on the submit hot path — the
//     library analogue of the compiler-resolved clause expressions of
//     OmpSs. Raw any-typed keys remain supported as sugar: the runtime
//     interns them at submission into the same records.
//   - *Handle, the future returned by Go: Done is closed at completion and
//     Err reports the outcome. Task and TaskLoop are fire-and-forget, as
//     an OmpSs task is: dependences, Taskwait and TaskwaitOn order them,
//     and their failures reach Runtime.Err, TaskwaitCtx and Session.Close.
//     Go spawns error-returning bodies; a failure (returned error or
//     wrapped panic, see TaskPanic) propagates along dependence edges under the runtime's
//     ErrorPolicy (OnError): SkipDependents releases dependents without
//     running them, RunThrough runs them anyway. TaskwaitCtx and RunSimCtx
//     add context-aware waiting — cancellation drains the graph by
//     skipping every task that has not started.
//
// As in OmpSs, the master thread participates in execution: with Workers(n),
// n−1 dedicated workers are started and the program thread helps execute
// tasks inside Taskwait, TaskwaitOn, and Shutdown. Polling wait mode (the
// OmpSs default, paper §4/§5) busy-waits between tasks; Blocking parks idle
// threads on a condition variable.
package ompss

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ompssgo/internal/core"
	"ompssgo/internal/obs"
)

// WaitMode selects how idle workers and waiters behave.
type WaitMode int

const (
	// Polling busy-waits (the OmpSs runtime default): lowest release
	// latency, but cores stay occupied even without work (paper §5).
	Polling WaitMode = iota
	// Blocking parks idle threads on a condition variable, paying an OS
	// wake latency on release (the Pthreads-style default).
	Blocking
)

// config collects runtime options. The session-relevant subset — policy,
// rec, tenant, maxInFlight — is accepted uniformly at New and NewSession:
// NewSession starts from a copy of the runtime's config and applies its own
// options on top, so session values override runtime defaults field by
// field. Scheduling/renaming knobs live in the Tuning profile (tuning.go),
// which only the runtime's config consults.
type config struct {
	workers     int
	wait        WaitMode
	tun         Tuning
	seed        int64
	rec         *obs.Recorder
	policy      ErrorPolicy
	tenant      int
	maxInFlight int
}

// schedPolicy assembles the core scheduling policy the lifecycle hands to
// its Sched — the single point where runtime options become placement and
// victim-selection behavior (internal/core/policy.go).
func (c config) schedPolicy() core.Policy {
	return core.Policy{Locality: c.localityOn()}
}

// Option configures a Runtime.
type Option func(*config)

// Workers sets the total thread count (master + dedicated workers), like
// OMP_NUM_THREADS. Defaults to 1 for New (callers size explicitly) and to
// the machine's core count for RunSim.
func Workers(n int) Option { return func(c *config) { c.workers = n } }

// Wait selects the idle-wait policy (default Polling, as in OmpSs).
func Wait(m WaitMode) Option { return func(c *config) { c.wait = m } }

// Seed fixes the scheduler's steal-victim RNG.
func Seed(s int64) Option { return func(c *config) { c.seed = s } }

// Observe attaches an observability recorder (internal/obs): both backends
// and the core engine emit the full event vocabulary — submit, ready,
// start, end, skip, steal, idle-enter/exit, taskwait-enter/exit, rename,
// writeback — into its per-worker ring buffers. Detached (the default) the
// runtime records nothing and pays only a nil check per site; attached,
// the record path performs zero heap allocations and takes no shared lock.
// After the run drains, Recorder.Snapshot yields the merged stream for
// obs.Analyze and the Chrome-trace/Paraver exporters (see cmd/ompss-trace).
func Observe(r *obs.Recorder) Option { return func(c *config) { c.rec = r } }

func buildConfig(opts []Option) config {
	// workers == 0 means "unset": New defaults to 1, RunSim to the
	// simulated machine's core count. Unset Tuning fields resolve to the
	// pre-profile defaults (locality on, renaming off) through
	// the config accessors in tuning.go.
	c := config{wait: Polling, seed: 1}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// TaskPanic is the error a panicking task body is wrapped into: instead of
// unwinding a worker (the old panic-poisoning behavior), the panic becomes
// the task's outcome, observable through Handle.Err, TaskwaitCtx, and
// Runtime.Err, and propagating to dependents like any other task error. As
// a safety valve, a native Shutdown re-panics with the first *TaskPanic if
// no error-returning API ever observed the runtime's failures — a program
// that ignores the error surface still crashes loudly.
type TaskPanic struct {
	Label string // the task's Label clause, if any
	Value any    // the original panic value
}

func (p *TaskPanic) Error() string {
	if p.Label != "" {
		return fmt.Sprintf("ompss: task %q panicked: %v", p.Label, p.Value)
	}
	return fmt.Sprintf("ompss: task panicked: %v", p.Value)
}

// errRef boxes an error for atomic first-wins publication.
type errRef struct{ err error }

// Runtime is an OmpSs runtime instance. Create with New (native execution)
// or receive one inside RunSim (simulated execution). Methods on Runtime act
// on behalf of the program's master thread; inside task bodies, use the TC
// methods instead.
//
// A Runtime is also a long-lived host for request-scoped Sessions
// (NewSession): every Runtime-level spawning call delegates to the
// implicit default session, so batch-style programs and the serving surface
// share one API (see API).
type Runtime struct {
	lc   *lifecycle
	main *TC
	cfg  config
	// workers counts the goroutines New started; Shutdown waits for them.
	workers sync.WaitGroup

	// sessID hands out session IDs (the implicit default session every
	// Runtime-level call acts on is 1).
	sessID atomic.Uint64

	firstErr  atomic.Pointer[errRef] // first task failure (any kind)
	firstPan  atomic.Pointer[errRef] // first *TaskPanic, for the Shutdown valve
	cancelled atomic.Pointer[errRef] // cancellation cause; non-nil => skip-everything
	observed  atomic.Bool            // some error-returning API was consulted
	simMode   bool                   // sim runs surface failures via RunSim's error
}

// noteErr records a task failure: the first error (and first panic) sticks.
func (rt *Runtime) noteErr(err error) {
	if err == nil {
		return
	}
	if rt.firstErr.Load() == nil {
		rt.firstErr.CompareAndSwap(nil, &errRef{err})
	}
	rt.notePanic(err)
}

// notePanic arms the Shutdown panic valve without recording a global error.
func (rt *Runtime) notePanic(err error) {
	var tp *TaskPanic
	if errors.As(err, &tp) && rt.firstPan.Load() == nil {
		rt.firstPan.CompareAndSwap(nil, &errRef{tp})
	}
}

// noteTaskErr records a finished task's failure on the right error surface.
// Request-session tasks fail into their session's domain — Handle.Err,
// Session.TaskwaitCtx, and Close report them — and do NOT become the
// runtime-global first error: a multi-tenant server's rt.Err must not
// answer with one tenant's private failure, and RunSim must not fail a
// whole simulation over a session-contained error. Panics still arm the Shutdown valve
// globally, so an unobserved panic crashes loudly no matter whose task
// panicked.
func (rt *Runtime) noteTaskErr(t *core.Task, err error) {
	if err == nil {
		return
	}
	if d := t.Domain; d != nil {
		if s, ok := d.Owner.(*Session); ok && s.ephemeral {
			rt.notePanic(err)
			return
		}
	}
	rt.noteErr(err)
}

// Err returns the first task failure recorded on this runtime (nil when
// every finished task succeeded so far). Failures inside request sessions
// are session-scoped — consult Handle.Err, Session.TaskwaitCtx, or
// Session.Close — and never appear here. Calling Err marks the runtime's
// failures as observed, disarming the Shutdown panic valve.
func (rt *Runtime) Err() error {
	rt.observed.Store(true)
	if r := rt.firstErr.Load(); r != nil {
		return r.err
	}
	return nil
}

// cancelWith puts the runtime into cancellation drain: every task that has
// not started yet — including tasks submitted later — is released without
// running, finishing with a *SkipError wrapping cause. Idempotent; the
// first cause wins.
func (rt *Runtime) cancelWith(cause error) {
	if cause == nil {
		cause = context.Canceled
	}
	if rt.cancelled.Load() == nil {
		rt.cancelled.CompareAndSwap(nil, &errRef{cause})
	}
	rt.lc.clk.cancelWake()
}

// cancelCause returns the cancellation cause, or nil when not cancelled.
func (rt *Runtime) cancelCause() error {
	if r := rt.cancelled.Load(); r != nil {
		return r.err
	}
	return nil
}

// skipReason decides, at dispatch, whether t must be released without
// running: always after a runtime-wide or session cancellation, and under
// the owning session's SkipDependents policy when an upstream failure
// reached it. Returns the error to finish the task with.
func (rt *Runtime) skipReason(t *core.Task) error {
	if ce := rt.cancelCause(); ce != nil {
		return &SkipError{Label: t.Label, Cause: ce}
	}
	pol := rt.cfg.policy
	if d := t.Domain; d != nil {
		if ce := d.CancelCause(); ce != nil {
			return &SkipError{Label: t.Label, Cause: ce}
		}
		if s, ok := d.Owner.(*Session); ok {
			pol = s.cfg.policy
		}
	}
	if pol == SkipDependents {
		if ue := t.Upstream(); ue != nil {
			return &SkipError{Label: t.Label, Cause: ue}
		}
	}
	return nil
}

// RunStats reports engine activity counters. Per-label body time is in
// obs.Analyze's ByLabel (attach a recorder with Observe).
type RunStats struct {
	Graph core.GraphStats
	Sched core.SchedStats
}

// Master returns the master thread's TC, the one that the runtime's Task, Go,
// TaskLoop and waits act on. Spawning on it directly, a concrete receiver,
// lets clauses built in the call stay on the caller's stack (see Clause).
func (rt *Runtime) Master() *TC { return rt.main }

// Task spawns a task from the master thread (see TC.Task). The body runs
// once its dependences (declared via In/Out/InOut clauses) are satisfied.
func (rt *Runtime) Task(body func(*TC), clauses ...Clause) { rt.main.Task(body, clauses...) }

// Go spawns an error-returning task from the master thread: the body's
// returned error becomes the task's outcome (Handle.Err) and propagates to
// dependents under the runtime's ErrorPolicy.
func (rt *Runtime) Go(body func(*TC) error, clauses ...Clause) *Handle {
	return rt.main.Go(body, clauses...)
}

// Taskwait blocks until all tasks spawned by the master thread (and not by
// nested tasks) have finished. The master helps execute ready tasks while
// waiting (polling mode), as the OmpSs master thread does. Use TaskwaitCtx
// to also observe failures or bound the wait by a context.
func (rt *Runtime) Taskwait() { rt.main.Taskwait() }

// TaskwaitCtx is Taskwait with a completion story: it blocks until all
// tasks spawned by the master thread have finished, or until ctx is
// cancelled — cancellation drains the graph by skipping every task that
// has not started yet. It returns ctx's error after a cancellation,
// otherwise the first failure among the awaited children (nil when all
// succeeded).
func (rt *Runtime) TaskwaitCtx(ctx context.Context) error { return rt.main.TaskwaitCtx(ctx) }

// TaskwaitOn blocks until the current last writer of each key has finished —
// the `#pragma omp taskwait on(...)` of Listing 1, used to let the EOF
// condition of a pipelined loop depend on the read stage only.
func (rt *Runtime) TaskwaitOn(keys ...any) { rt.main.TaskwaitOn(keys...) }

// Critical runs f under the named global lock (`#pragma omp critical`).
func (rt *Runtime) Critical(name string, f func()) { rt.main.Critical(name, f) }

// TaskLoop spawns chunked loop tasks from the master thread (see
// TC.TaskLoop).
func (rt *Runtime) TaskLoop(n, chunk int, body func(tc *TC, lo, hi int), clauses ...Clause) {
	rt.main.TaskLoop(n, chunk, body, clauses...)
}

// Stats returns engine activity counters. Call after a Taskwait for a
// consistent snapshot.
func (rt *Runtime) Stats() RunStats {
	l := rt.lc
	return RunStats{Graph: l.graph.Stats(), Sched: l.sched.Stats()}
}

// DepRecords reports the live dependence records: the keys the tracker has
// interned. Sessions release the records they created at Close, so for a
// drained runtime the count returns to the pre-churn baseline — the
// arena-leak probe the session-churn soak (internal/serve, -soak) asserts
// on.
func (rt *Runtime) DepRecords() int {
	return rt.lc.graph.Records()
}

// WindowFull reports whether the run-ahead window (MaxInFlight at New) is
// full: a creator outside a task body would be held at its next spawn. A
// server reads it at the door to refuse a whole request before it opens a
// session (AdmissionMode). Approximate under concurrent spawners, like the
// window itself.
func (rt *Runtime) WindowFull() bool {
	return rt.lc.room != nil && !rt.lc.room()
}

// Shutdown drains all outstanding tasks (the implicit end-of-program
// barrier) and stops the workers. The native runtime requires it; RunSim
// calls it automatically when the program returns. Idempotent.
//
// Safety valve: if some task body panicked and no error-returning API
// (Handle.Err, Runtime.Err, TaskwaitCtx) was ever consulted, the first
// *TaskPanic re-panics here, so programs that ignore the error surface
// still fail loudly instead of silently dropping a panic.
func (rt *Runtime) Shutdown() {
	rt.lc.shutdown(rt.main)
	rt.workers.Wait()
	if !rt.simMode && !rt.observed.Load() {
		if r := rt.firstPan.Load(); r != nil {
			panic(r.err)
		}
	}
}

// New creates a native runtime executing on goroutines.
func New(opts ...Option) *Runtime {
	cfg := buildConfig(opts)
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	rt := &Runtime{cfg: cfg}
	clk := newNativeClock(cfg)
	rt.lc = newLifecycle(rt, cfg, clk, false)
	clk.l = rt.lc
	rt.initMain(cfg.workers - 1)
	for lane := 0; lane < cfg.workers-1; lane++ {
		rt.workers.Add(1)
		go func() {
			defer rt.workers.Done()
			rt.lc.workerLoop(lane)
		}()
	}
	return rt
}

// initMain builds the master TC and the implicit default session it
// belongs to (session ID 1). Shared by New and the simulated runner.
func (rt *Runtime) initMain(lane int) {
	rt.sessID.Store(1)
	def := &Session{rt: rt, cfg: rt.cfg}
	def.dom = &core.Domain{ID: 1, Owner: def}
	def.tc = def.masterTC(lane)
	rt.main = def.tc
}

// TC is the task context handed to task bodies and representing the master
// thread on a Runtime. It identifies the executing worker and carries the
// nesting scope for nested tasks and taskwait.
//
// A task body's TC is valid only while the body runs: the runtime reuses
// the task's record afterwards, so a TC kept beyond that belongs to another
// task. Spawn with Go and keep its Handle instead.
type TC struct {
	rt     *Runtime
	ctx    *core.Context // children spawned from this scope
	task   *core.Task    // nil for the master TC
	sess   *Session      // owning session (the default session on rt.main)
	worker int           // executing lane; the master thread owns the highest
}

// Task spawns a nested task whose completion is covered by this context's
// Taskwait. It is fire-and-forget, like an OmpSs task, and returns no
// future: its dependences, Taskwait and TaskwaitOn order it. A failing or
// panicking body still surfaces — through TaskwaitCtx, Runtime.Err (or
// Session.Close in a request session) and the skip cascade of its
// dependents — and an unobserved panic re-panics at Shutdown. Spawn with Go
// for a Handle on the one task.
func (tc *TC) Task(body func(*TC), clauses ...Clause) {
	r := tc.newRec(clauses)
	r.body = body
	tc.spawn(r)
}

// Go spawns an error-returning nested task and returns its Handle, the
// one future-bearing spawn: the body's returned error becomes the task's
// outcome (Handle.Err) and propagates to dependents under the runtime's
// ErrorPolicy.
func (tc *TC) Go(body func(*TC) error, clauses ...Clause) *Handle {
	r := tc.newRec(clauses)
	r.bodyErr = body
	h := &Handle{rt: tc.rt}
	r.h = h
	tc.spawn(r) // r may be reused once spawn returns; h is the caller's
	return h
}

// spawn is the common deferred/undeferred spawn path behind Task, Go and
// TaskLoop. It drops the spawner's reference on the record last: until then
// the record is readable, however fast the task runs and finishes.
func (tc *TC) spawn(r *taskRec) {
	switch s := tc.sess; {
	case !r.enabled:
		tc.spawnInline(r)
	case s != nil && s.ephemeral:
		// Request sessions route through their budget and close gate.
		s.spawnManaged(tc, r)
	default:
		if s != nil {
			s.dom.Charge()
		}
		tc.rt.lc.submit(tc, r)
	}
	r.t.Drop()
}

// spawnInline executes an If(false) task undeferred in the spawning
// thread, as in OmpSs. Costs are charged to the current thread in
// simulation. A panic propagates synchronously to the spawner (the body
// runs on its stack); a returned error is recorded like any task failure.
// The task never enters the graph, so its handle, if any, is settled here.
func (tc *TC) spawnInline(r *taskRec) {
	if ce := tc.rt.cancelCause(); ce != nil {
		err := &SkipError{Label: r.t.Label, Cause: ce}
		tc.rt.noteErr(err)
		tc.ctx.NoteErr(err)
		r.Settle(err)
		return
	}
	if s := tc.sess; s != nil {
		if s.closedFlag.Load() {
			r.refuse(ErrSessionClosed)
			return
		}
		if ce := s.dom.CancelCause(); ce != nil {
			err := &SkipError{Label: r.t.Label, Cause: ce}
			tc.ctx.NoteErr(err)
			r.Settle(err)
			return
		}
	}
	tc.Compute(time.Duration(r.t.CPUCost))
	for _, a := range r.t.Accesses {
		tc.Touch(a.Key, a.Bytes, a.Writes())
	}
	r.tc.worker = tc.worker
	err := r.exec()
	if s := tc.sess; s != nil && s.ephemeral {
		tc.rt.notePanic(err)
	} else {
		tc.rt.noteErr(err)
	}
	// Inline tasks never enter the graph, so record the failure on the
	// spawning scope here — TaskwaitCtx reports it like any child's.
	tc.ctx.NoteErr(err)
	r.Settle(err)
}

// TaskLoop partitions the iteration space [0, n) into chunks of at most
// `chunk` iterations and spawns one task per chunk — the OmpSs/OpenMP
// taskloop construct. The clauses apply to every chunk task (for independent
// chunks no clauses are needed).
// TaskLoop does not wait and, like Task, returns no future: pair it with
// Taskwait, or TaskwaitCtx to see a chunk's failure.
//
// chunk == Auto asks the runtime to size the chunks: the pinned
// Tuning{Grain: Fixed(v)} value, or a workers-derived heuristic otherwise.
// Exactly Auto means runtime-chosen; every other non-positive chunk keeps
// the historical clamp to 1, so e.g. a computed chunk that underflows to 0
// still means "one iteration per task", not "auto".
func (tc *TC) TaskLoop(n, chunk int, body func(tc *TC, lo, hi int), clauses ...Clause) {
	if chunk == Auto {
		chunk = tc.autoChunk(n)
	}
	if chunk < 1 {
		chunk = 1
	}
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		lo, hi := lo, hi
		r := tc.newRec(clauses)
		r.body = func(c *TC) { body(c, lo, hi) }
		tc.spawn(r)
	}
}

// autoChunk resolves a TaskLoop's Auto chunk: the pinned Grain value, or the
// static heuristic (about four chunks per worker — enough slack for stealing
// without drowning in per-task cost).
func (tc *TC) autoChunk(n int) int {
	if n <= 1 {
		return 1
	}
	cfg := tc.rt.cfg
	if v, ok := cfg.tun.Grain.value(); ok && v > 0 {
		return v
	}
	w := cfg.workers
	if w < 1 {
		w = 1
	}
	ch := n / (4 * w)
	if ch < 1 {
		ch = 1
	}
	return ch
}

// Taskwait blocks until this context's direct children have finished,
// helping to execute ready tasks meanwhile. Failures do not resurface
// here — consult TaskwaitCtx, Handle.Err, or Runtime.Err. Like
// TaskwaitCtx, it closes the round: failures of the awaited children are
// not re-reported by a later wait over this scope.
func (tc *TC) Taskwait() {
	tc.rt.lc.taskwait(tc)
	tc.ctx.TakeErr()
}

// TaskwaitCtx blocks until this context's direct children have finished or
// ctx is cancelled. Cancellation drains the graph by skipping every task
// that has not started yet (runtime-wide — a cancelled runtime skips all
// later submissions too); the wait still returns only after the children
// drained, so no awaited task is left in flight. It returns ctx's error
// after a cancellation, otherwise the first failure among this context's
// children (nil when all succeeded).
func (tc *TC) TaskwaitCtx(ctx context.Context) error {
	rt := tc.rt
	rt.observed.Store(true)
	// Cancellation scope: on a request session the context cancels that
	// session only; on the default session (and TCs inside its tasks) it
	// cancels the runtime, preserving the pre-session semantics.
	cancel := rt.cancelWith
	if s := tc.sess; s != nil && s.ephemeral {
		cancel = s.cancelWith
	}
	if ctx != nil && ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { cancel(context.Cause(ctx)) })
		defer stop()
	}
	rt.lc.taskwait(tc)
	// Report-and-clear: a later taskwait over the same scope reports only
	// its own round's failures, whatever this round returns.
	scopeErr := tc.ctx.TakeErr()
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return scopeErr
}

// TaskwaitOn blocks until the last writer task of each key has finished.
// Keys may be raw dependence keys or registered *Datum handles.
func (tc *TC) TaskwaitOn(keys ...any) {
	resolved := make([]any, len(keys))
	for i, k := range keys {
		if d, ok := k.(*Datum); ok {
			resolved[i] = d.c.Key
		} else {
			resolved[i] = k
		}
	}
	tc.rt.lc.taskwaitOn(tc, resolved)
}

// Critical runs f under the named global lock.
func (tc *TC) Critical(name string, f func()) { tc.rt.lc.critical(tc, name, f) }

// Compute charges d of computation to the executing thread on the simulated
// machine. Native execution ignores it: the body's real work is the cost.
// Use it for data-dependent costs that the Cost clause cannot express.
func (tc *TC) Compute(d time.Duration) {
	if d > 0 {
		tc.rt.lc.clk.charge(tc.worker, costCompute, int64(d))
	}
}

// Touch charges the simulated memory-system cost of streaming `bytes` of the
// datum identified by key (warmth/NUMA-dependent). Native execution ignores
// it.
func (tc *TC) Touch(key any, bytes int64, write bool) {
	clk := tc.rt.lc.clk
	clk.charge(tc.worker, costCompute, clk.touch(tc.worker, key, bytes, write))
}

// Data resolves the instance of a renameable datum this task is bound to:
// the version current when the task was submitted (readers), or the task's
// private output instance (a renamed writer — seeded with its
// predecessor's value first when the access is InOut). Task bodies MUST go
// through Data for every datum that called EnableRenaming; for any other
// datum it returns the registered key itself, so pointer-keyed bodies can
// use it unconditionally:
//
//	buf := tc.Data(d).(*Tile)
//
// On the master TC (outside any task) it returns the canonical instance —
// current only after a Taskwait/TaskwaitOn drained the datum's accessors.
func (tc *TC) Data(d *Datum) any { return d.c.PayloadFor(tc.task) }
