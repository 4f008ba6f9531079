package ompss

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"ompssgo/internal/core"
)

// ErrSessionClosed is the cause wrapped into the outcome of every task a
// session Close released without running, and into the pre-failed handles
// Go returns for spawns attempted after Close. Match with errors.Is.
var ErrSessionClosed = errors.New("ompss: session closed")

// AdmissionMode is a server's door policy for a request that arrives while
// the runtime's run-ahead window is full (Runtime.WindowFull): internal/serve
// reads it once per request, before it opens the request's session. Inside a
// session, spawns never refuse; a full budget holds the creator, which helps
// execute ready tasks meanwhile.
type AdmissionMode int

const (
	// BlockOnFull (the default) admits the request anyway: its session's
	// spawns wait for room, helping to execute ready tasks meanwhile —
	// backpressure that keeps the submitter productive, as taskwait does.
	BlockOnFull AdmissionMode = iota
	// RejectOnFull refuses the whole request at the door (HTTP 429 with
	// Retry-After): it opens no session and runs no task. Load-shedding for
	// servers that prefer a fast 429 over queueing.
	RejectOnFull
)

// Tenant assigns the session's tenant class: a priority boost added to
// every task the session spawns, mapping tenants onto the scheduler's
// priority lanes (a class-2 session's tasks outrank a class-0 session's
// ready tasks at every dispatch point). Valid at New (boosting the default
// session) and NewSession; default 0.
func Tenant(class int) Option { return func(c *config) { c.tenant = class } }

// MaxInFlight bounds submitted-but-unfinished tasks.
//
// At New it sets the runtime's run-ahead window, which meters every
// session's submissions together: n > 0 is the window in tasks, n < 0 lifts
// the bound, and unset (or 0) is the default of 64 tasks per worker. A
// creator outside any task body — the runtime's master or a session's — that
// finds the window full stops creating and executes ready tasks until there
// is room; a creator inside a task body is never held, since its parent may
// be waiting for the very child it is about to create. It follows that a task body must not wait for
// something its creator does only later in program order (a channel the
// creator closes after further spawns, say) unless the window covers those
// spawns: the creator may be executing that very body. Under concurrent
// sessions the check is approximate (overshoot bounded by the number of
// concurrently admitting creators).
//
// At NewSession it is that session's private budget, exact and applied to
// every spawn of the session; unset (or n <= 0) means none. Both may be
// active — a spawn needs headroom in both.
func MaxInFlight(n int) Option { return func(c *config) { c.maxInFlight = n } }

// API is the task-spawning surface shared by *Runtime and *Session:
// programs written against it run unchanged on the runtime's default
// session or on a request-scoped session (the suite's kernels take an API,
// which is how one benchmark body serves both the batch harness and the
// per-request server). The suite spawns on Master; Task and Taskwait stay
// because the programs of benchmark/ call them through API.
type API interface {
	Register(key any) *Datum
	Master() *TC
	Task(body func(*TC), clauses ...Clause)
	Taskwait()
}

var (
	_ API = (*Runtime)(nil)
	_ API = (*Session)(nil)
)

// Session is a request-scoped task graph on a shared runtime: it owns its
// own spawning surface (Register, Master), its own
// error and cancellation domain, its own admission budget and tenant
// class, and a request-scoped arena — Close drops the dependence records
// the session created, version chains included, wholesale, and with them
// the last holds on its task records, which go back to the runtime's pool.
// Go's handles are objects of their own and outlive the session.
//
// Obtain one with Runtime.NewSession per request; the runtime hosts any
// number of concurrent sessions. Failure isolation is structural: a
// session's skip cascade after a failure, TaskwaitCtx cancellation, or Cancel
// never skips another session's tasks, even across shared-data dependence
// edges (cross-session edges order execution but never carry errors).
//
// A session is safe for concurrent use by multiple spawning goroutines.
// Close must not race in-flight spawns of the same session gratuitously —
// it waits for them, cancels what has not started, and drains (Err of a
// task the close skipped is a stable ErrSessionClosed-wrapped outcome).
// A key's dependence record belongs to whoever first interned it: the
// session owns the records of the keys it registered, or its tasks touched,
// first, and Close drops exactly those. A key already known to the runtime
// (registered on it, or created by another session) keeps its record and
// its ordering history across this session's Close. To share a datum
// between sessions with ordering that outlives each of them, register it on
// the runtime first.
type Session struct {
	rt  *Runtime
	cfg config
	dom *core.Domain
	tc  *TC
	// drained reports that tc's scope has no unfinished children: the
	// predicate of the session's Taskwait, built once.
	drained func() bool
	// ephemeral marks NewSession sessions: their domain owns the dependence
	// records it creates, and Close drops them. The runtime's default
	// session is not ephemeral — it never closes, and its records stay.
	ephemeral bool

	closedFlag atomic.Bool
	// gate brackets spawn sections (closed-check .. submit) against Close:
	// Close sets closedFlag, then takes the write lock once as a barrier so
	// every in-flight spawn has either submitted (its records interned) or
	// will observe the flag.
	gate sync.RWMutex
	// admu serializes the session's budget check-then-charge, making the
	// per-session budget exact under concurrent spawners.
	admu sync.Mutex
}

// NewSession opens a request-scoped session. Session-relevant options —
// Observe, Tenant, MaxInFlight — are accepted here with the same
// constructors New takes; a session value overrides the runtime
// default, anything not set is inherited (see DESIGN.md for the precedence
// table). Observe(nil) mutes the session's per-task events in the
// runtime's recorder; attaching a different recorder than the runtime's
// panics (per-session traces are carved out of the runtime's stream by
// session ID instead — see obs.Trace.FilterSession). Runtime options
// (Workers, Wait, Seed, WithTuning) are ignored: the backend is already
// built, and the session runs under the runtime's Tuning profile.
func (rt *Runtime) NewSession(opts ...Option) *Session {
	cfg := rt.cfg
	// The runtime's MaxInFlight is the run-ahead window and its tenant boost
	// belongs to the default session; a session starts neutral and opts in.
	cfg.maxInFlight = 0
	cfg.tenant = 0
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.rec != nil && cfg.rec != rt.cfg.rec {
		panic("ompss: NewSession: sessions cannot attach their own recorder; use the runtime's recorder (traces are per-session filterable) or Observe(nil) to mute")
	}
	s := &Session{rt: rt, cfg: cfg, ephemeral: true}
	s.dom = &core.Domain{
		ID:     rt.sessID.Add(1),
		Owner:  s,
		Quiet:  rt.cfg.rec != nil && cfg.rec == nil,
		Scoped: true,
	}
	s.tc = s.masterTC(rt.main.worker)
	return s
}

// masterTC builds the session's spawning surface: the context of a thread
// that is outside any task (tasks get theirs from newRec), and the
// predicate its Taskwait polls.
func (s *Session) masterTC(lane int) *TC {
	ctx := &core.Context{}
	s.drained = func() bool { return ctx.Pending() == 0 }
	return &TC{rt: s.rt, ctx: ctx, worker: lane, sess: s}
}

// ID returns the session's trace identity (the `sid` field of its submit
// events; the default session is 1).
func (s *Session) ID() uint64 { return s.dom.ID }

// SessionStats is a snapshot of one session's task accounting.
type SessionStats struct {
	Submitted uint64
	Finished  uint64
	Failed    uint64 // finished with a non-nil outcome (includes skipped)
	Skipped   uint64 // released without running
	InFlight  int64  // submitted but not yet finished
}

// Stats returns the session's task accounting counters.
func (s *Session) Stats() SessionStats {
	d := s.dom.Stats()
	return SessionStats{
		Submitted: d.Submitted,
		Finished:  d.Finished,
		Failed:    d.Failed,
		Skipped:   d.Skipped,
		InFlight:  d.InFlight,
	}
}

// Register interns key's dependence record on the shared runtime; a record
// it creates belongs to the session and Close drops it. See Runtime.Register
// for handle semantics.
func (s *Session) Register(key any) *Datum { return s.rt.register(key, s.dom) }

// Master returns the TC that the session's Task and Taskwait act on. Go,
// TaskwaitCtx (cancelling this session only), TaskwaitOn and Critical are
// called on it. Spawning on it directly, a concrete receiver, lets clauses
// built in the call stay on the caller's stack (see Clause).
func (s *Session) Master() *TC { return s.tc }

// Task spawns a task in this session's scope (see TC.Task).
func (s *Session) Task(body func(*TC), clauses ...Clause) { s.tc.Task(body, clauses...) }

// Taskwait blocks until the session's direct children have finished,
// helping to execute ready tasks meanwhile (see TC.Taskwait).
func (s *Session) Taskwait() { s.tc.Taskwait() }

// Cancel puts the session into cancellation drain: every task of this
// session that has not started yet — including later submissions — is
// released without running, finishing with a *SkipError wrapping cause
// (context.Canceled when nil). Other sessions are unaffected. Idempotent.
func (s *Session) Cancel(cause error) { s.cancelWith(cause) }

func (s *Session) cancelWith(cause error) {
	if cause == nil {
		cause = context.Canceled
	}
	if s.dom.Cancel(cause) {
		s.rt.lc.clk.cancelWake()
	}
}

// Close ends the session: new spawns are refused (Go returns pre-failed
// handles wrapping ErrSessionClosed), every task that has not started is
// cancelled with ErrSessionClosed, the session drains (the closing thread
// helps execute), and the session's arena — the dependence records it
// created, version chains included — is dropped wholesale; Go's handles stay
// valid and keep reporting their task's final outcome. Returns the first
// failure among the session's children (cancellation skips included, and a
// Task's failure, which has no handle to report it), nil when everything
// succeeded. A spawn refused after Close never became a child: it is not
// reported here. Idempotent; call Taskwait first if remaining work should
// complete rather than be cancelled. On the default session Close is a no-op
// returning nil.
func (s *Session) Close() error {
	if !s.ephemeral {
		return nil
	}
	if s.closedFlag.Swap(true) {
		return nil
	}
	// Barrier: wait out every spawn section that passed the closed check,
	// so every record the session's submissions created exists by now.
	s.gate.Lock()
	s.gate.Unlock() //nolint:staticcheck // empty critical section is the barrier
	// Fast drain: skip everything that has not started.
	s.dom.Cancel(ErrSessionClosed)
	s.rt.lc.clk.cancelWake()
	s.rt.lc.waitFor(s.tc, parkFinish, func() bool { return s.dom.InFlight() == 0 })
	// Outcomes are consumed here (the returned error): that counts as
	// observing failures, like TaskwaitCtx.
	s.rt.observed.Store(true)
	// Drop the arena: the datums' slots are the last holders of the
	// session's task records, which go back to the pool with them.
	s.rt.lc.graph.Release(s.dom)
	return s.tc.ctx.TakeErr()
}

// headroom reports whether the session's private budget (MaxInFlight at
// NewSession; <= 0: none) and the runtime's run-ahead window both admit one
// more task from tc. Only request sessions come here: the default session's
// only bound is the window, which lifecycle.submit checks itself.
func (s *Session) headroom(tc *TC) bool {
	if lim := s.cfg.maxInFlight; lim > 0 && s.dom.InFlight() >= int64(lim) {
		return false
	}
	return !s.rt.lc.held(tc)
}

// admit waits for budget headroom, helping execute meanwhile, and charges
// the session for one task. ok=false reports the refusal cause
// (ErrSessionClosed, or the session's cancellation cause); nothing is
// charged then.
func (s *Session) admit(tc *TC) (ok bool, cause error) {
	for {
		if s.closedFlag.Load() {
			return false, ErrSessionClosed
		}
		if ce := s.dom.CancelCause(); ce != nil {
			return false, ce
		}
		s.admu.Lock()
		if s.headroom(tc) {
			s.dom.Charge()
			s.admu.Unlock()
			return true, nil
		}
		s.admu.Unlock()
		// Backpressure: help execute until a finish frees budget, the
		// session is cancelled, or it closes.
		s.rt.lc.waitFor(tc, parkFinish, func() bool {
			return s.closedFlag.Load() || s.dom.CancelCause() != nil || s.headroom(tc)
		})
	}
}

// spawnManaged is the admission-controlled spawn path of request sessions
// (TC.spawn routes here).
func (s *Session) spawnManaged(tc *TC, r *taskRec) {
	if ok, cause := s.admit(tc); !ok {
		r.refuse(cause)
		return
	}
	s.gate.RLock()
	if s.closedFlag.Load() {
		s.gate.RUnlock()
		s.dom.Uncharge()
		r.refuse(ErrSessionClosed)
		return
	}
	s.rt.lc.submit(tc, r)
	s.gate.RUnlock()
}
