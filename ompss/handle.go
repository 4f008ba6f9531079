package ompss

import (
	"errors"
	"fmt"
	"sync/atomic"

	"ompssgo/internal/core"
)

// Datum is a pre-registered data handle: the clause-expression analogue of
// the paper's compiler-resolved dependence expressions. Registering a key
// once (Runtime.Register) resolves its dependence shard and record up
// front, so every later In/Out/InOut/Commutative clause built from the
// handle skips interface hashing and the shard map lookup on the submit hot
// path. Pass a *Datum anywhere a dependence key is accepted — the clause
// constructors and TaskwaitOn recognize it. Raw any-key clauses remain supported as a compatibility
// layer and resolve to the same records, so handle-based and key-based
// accesses to one datum stay mutually ordered.
type Datum struct {
	c *core.Datum
	// Cached clause closures: one closure and one access value per mode,
	// built at registration, so d.AsIn() etc. add zero allocations to a
	// submission (the package-level In(d) constructors allocate a variadic
	// slice and a fresh closure per call).
	asIn, asOut, asInOut Clause
}

// AsIn returns the handle's pre-built In clause (see In). The clause is
// constructed once at registration: using it adds no per-submit work.
func (d *Datum) AsIn() Clause { return d.asIn }

// AsOut returns the handle's pre-built Out clause (see Out).
func (d *Datum) AsOut() Clause { return d.asOut }

// AsInOut returns the handle's pre-built InOut clause (see InOut).
func (d *Datum) AsInOut() Clause { return d.asInOut }

// newDatum wraps a core handle and pre-builds its clause closures.
func newDatum(c *core.Datum) *Datum {
	d := &Datum{c: c}
	accIn := core.Access{Key: c.Key, Mode: core.In, Datum: c}
	accOut := core.Access{Key: c.Key, Mode: core.Out, Datum: c}
	accInOut := core.Access{Key: c.Key, Mode: core.InOut, Datum: c}
	d.asIn = func(r *taskRec) { r.t.Accesses = append(r.t.Accesses, accIn) }
	d.asOut = func(r *taskRec) { r.t.Accesses = append(r.t.Accesses, accOut) }
	d.asInOut = func(r *taskRec) { r.t.Accesses = append(r.t.Accesses, accInOut) }
	return d
}

// Register interns key's dependence record and returns a reusable handle.
// Handles are bound to this runtime, valid for its lifetime, and safe for
// concurrent use from any task. Registering an existing handle is the
// identity on its own runtime; a handle from another runtime is
// re-registered here by its underlying key (clauses likewise treat a
// foreign handle as its key, so cross-runtime handle use degrades to the
// compatibility path instead of corrupting records).
func (rt *Runtime) Register(key any) *Datum {
	if d, ok := key.(*Datum); ok {
		if d.c.Owner() == rt.lc.graph {
			return d
		}
		key = d.c.Key
	}
	return newDatum(rt.lc.graph.Register(key))
}

// EnableRenaming makes the datum renameable (see Tuning.Renaming):
// canonical is the storage behind the registered key (nil defaults to the
// key itself — the usual pointer-keyed case), alloc produces a fresh
// private instance, and cp copies one instance's value onto another
// (renamed-InOut copy-in and the final writeback use it). Task bodies must
// then access the datum through TC.Data. Call before submitting tasks that
// use the handle; returns d for chaining:
//
//	d := rt.Register(&tile).EnableRenaming(nil,
//		func() any { return new(Tile) },
//		func(dst, src any) { *dst.(*Tile) = *src.(*Tile) })
func (d *Datum) EnableRenaming(canonical any, alloc func() any, cp func(dst, src any)) *Datum {
	d.c.EnableRenaming(canonical, alloc, cp)
	return d
}

// Handle is the future returned by Task, Go, and TaskLoop: a first-class
// completion and outcome token for one spawned task.
//
// Done is closed when the task finishes — successfully, with an error, or
// skipped. Err is nil until then; afterwards it reports the task's outcome:
// nil on success, the body's returned error, a *TaskPanic if the body
// panicked, or a *SkipError if the runtime released the task without
// running it (failure policy, cancellation, session close, or admission
// rejection).
//
// A Handle is a view of the spawn's task record (it points into it), so it
// stays valid for as long as anyone holds it: handles of a request session
// outlive the session and keep reading their own finished record — for a
// task the close cancelled, a *SkipError wrapping ErrSessionClosed.
type Handle struct {
	rt *Runtime
	t  *core.Task // nil for an undeferred (If(false)) task: it already ran
	// settled is the outcome of a task that never entered the graph, set
	// once: an inline task's failure, or the refusal of a spawn the session
	// would not admit. It wins over t, which such a task never finishes.
	settled atomic.Pointer[errRef]
}

// closedChan is the pre-closed Done channel of tasks that never entered the
// graph.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// offGraph reports whether the task never entered the graph (inline or
// refused): its Done is closed already and its outcome is in settled.
func (h *Handle) offGraph() bool { return h.t == nil || h.settled.Load() != nil }

// Done returns a channel closed when the task has finished (for inline and
// refused tasks it is closed already). Select on it together with a
// context's Done for per-task timeouts.
func (h *Handle) Done() <-chan struct{} {
	if h.offGraph() {
		return closedChan
	}
	return h.t.Done()
}

// Err returns the task's outcome: nil while the task is still in flight or
// when it succeeded; otherwise the error described on Handle. Calling Err
// counts as observing the runtime's failures (see Shutdown).
func (h *Handle) Err() error {
	h.rt.observed.Store(true)
	if r := h.settled.Load(); r != nil {
		return r.err
	}
	if h.t == nil {
		return nil
	}
	return h.t.Err()
}

// settle records the outcome of a task that never entered the graph (nil
// keeps an inline success) and returns h.
func (h *Handle) settle(err error) *Handle {
	if err != nil {
		h.settled.Store(&errRef{err})
	}
	return h
}

// ErrorPolicy selects what happens to the dependents of a failed task.
type ErrorPolicy int

const (
	// SkipDependents (the default) releases the dependents of a failed
	// task without running their bodies: each finishes with a *SkipError
	// wrapping the upstream failure, and the error keeps propagating along
	// dependence edges until the graph drains.
	SkipDependents ErrorPolicy = iota
	// RunThrough runs dependents of failed tasks anyway: a task that
	// succeeds stops the propagation. Use it when tasks can tolerate — or
	// want to observe — missing predecessor results.
	RunThrough
)

// OnError selects the failure-propagation policy (default SkipDependents).
func OnError(p ErrorPolicy) Option { return func(c *config) { c.policy = p } }

// ErrSkipped is the sentinel matched (via errors.Is) by every *SkipError.
var ErrSkipped = errors.New("ompss: task skipped")

// SkipError is the outcome of a task the runtime released without running:
// its cause is the upstream task failure (SkipDependents policy) or the
// cancellation error (TaskwaitCtx / RunSimCtx). Causes chain, so the root
// failure of a skipped subgraph is reachable through errors.As/Unwrap.
type SkipError struct {
	Label string // the skipped task's Label clause, if any
	Cause error  // the upstream failure or cancellation that induced the skip
}

func (e *SkipError) Error() string {
	if e.Label != "" {
		return fmt.Sprintf("ompss: task %q skipped: %v", e.Label, e.Cause)
	}
	return fmt.Sprintf("ompss: task skipped: %v", e.Cause)
}

// Unwrap exposes the inducing failure.
func (e *SkipError) Unwrap() error { return e.Cause }

// Is matches ErrSkipped.
func (e *SkipError) Is(target error) bool { return target == ErrSkipped }
