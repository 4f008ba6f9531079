package ompss

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ompssgo/internal/core"
)

// Datum is a pre-registered data handle: the clause-expression analogue of
// the paper's compiler-resolved dependence expressions. Registering a key
// (Runtime.Register) interns it once into its dependence record, so every
// later In/Out/InOut clause built from the handle reaches the record with
// no lookup on the submit hot path. Pass a *Datum anywhere a
// dependence key is accepted — the clause constructors and TaskwaitOn
// recognize it. Raw any-key clauses remain supported as sugar: the runtime
// interns the key at submission into the same record, so handle-based and
// key-based accesses to one datum stay mutually ordered.
//
// A clause is a pointer to a record of what it declares (see Clause): In(d)
// built in the call to a concrete *TC stays on the caller's stack, and
// AsIn, AsOut and AsInOut return records the handle keeps, for a clause
// that outlives the call.
type Datum struct {
	c *core.Datum
	// as holds the clause records AsIn, AsOut and AsInOut hand out, indexed
	// by mode: each is built on its first call, so a handle that never
	// calls them costs only the Datum, and every later call returns the
	// same record.
	as [core.InOut + 1]atomic.Pointer[clause]
}

// AsIn returns the handle's In clause (see In). The clause record is built
// once per handle, so a clause that must be passed through a []Clause that
// escapes — an API interface call — adds no allocation of its own.
func (d *Datum) AsIn() Clause { return d.modeClause(core.In) }

// AsOut returns the handle's Out clause (see Out and AsIn).
func (d *Datum) AsOut() Clause { return d.modeClause(core.Out) }

// AsInOut returns the handle's InOut clause (see InOut and AsIn).
func (d *Datum) AsInOut() Clause { return d.modeClause(core.InOut) }

// modeClause returns the handle's clause record for m, building it on first
// use. Concurrent first calls may each build one; all but the first
// published are dropped, so every caller sees the same record.
func (d *Datum) modeClause(m core.Mode) Clause {
	p := &d.as[m]
	c := p.Load()
	if c == nil {
		p.CompareAndSwap(nil, &clause{op: opKey, mode: m, key: d})
		c = p.Load()
	}
	return Clause{c}
}

// Register interns key's dependence record and returns a reusable handle:
// one record per key, however often it is registered, and the same one a
// raw-key clause on the key resolves to. Handles are bound to this runtime,
// valid for its lifetime, and safe for concurrent use from any task.
// Registering an existing handle is the identity on its own runtime; a
// handle from another runtime is re-registered here by its underlying key
// (clauses likewise treat a foreign handle as its key, so cross-runtime
// handle use degrades to the raw-key path instead of corrupting records).
func (rt *Runtime) Register(key any) *Datum { return rt.register(key, nil) }

// register interns key on behalf of dom (nil: the runtime's own, never
// released). A handle from another runtime stands for its key.
func (rt *Runtime) register(key any, dom *core.Domain) *Datum {
	if d, ok := key.(*Datum); ok {
		if d.c.Owner() == rt.lc.graph {
			return d
		}
		key = d.c.Key
	}
	return &Datum{c: rt.lc.graph.Intern(key, dom)}
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

// Handle is the future returned by Go: a first-class completion and outcome
// token for one spawned task. Task returns none — a task spawned with it
// costs no Handle — so spawn with Go to hold one task's outcome.
//
// Done is closed when the task finishes — successfully, with an error, or
// skipped. Err is nil until then; afterwards it reports the task's outcome:
// nil on success, the body's returned error, a *TaskPanic if the body
// panicked, or a *SkipError if the runtime released the task without
// running it (upstream failure, cancellation, session close, or admission
// rejection).
//
// A Handle is an object of its own, settled once when its task finishes, so
// it stays valid for as long as anyone holds it, long after the runtime has
// reused the task's record: handles of a request session outlive the
// session and keep reporting their own task — for a task the close
// cancelled, a *SkipError wrapping ErrSessionClosed. By the time a
// Taskwait, a TaskwaitOn or a session drain returns, every awaited task's
// Handle answers.
type Handle struct {
	rt *Runtime
	// state is nil while the task is in flight, waiting once Done has made
	// a channel for it to close, and the outcome once it finished: a
	// finishing task settles its Handle with one atomic swap.
	state atomic.Pointer[errRef]
	mu    sync.Mutex    // orders Done's channel against settle
	done  chan struct{} // made by Done for a caller that waits in flight
}

// Sentinels of Handle.state: a channel is waiting to be closed, and the
// outcome of every task that finished without an error.
var waiting, succeeded = &errRef{}, &errRef{}

// closedChan is the Done channel of a task that finished before anyone asked
// for one.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Done returns a channel closed when the task has finished (for inline and
// refused tasks it is closed already). Select on it together with a
// context's Done for per-task timeouts.
func (h *Handle) Done() <-chan struct{} {
	if r := h.state.Load(); r != nil && r != waiting {
		return closedChan
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done == nil {
		if !h.state.CompareAndSwap(nil, waiting) {
			return closedChan // settled meanwhile
		}
		h.done = make(chan struct{})
	}
	return h.done
}

// Err returns the task's outcome: nil while the task is still in flight or
// when it succeeded; otherwise the error described on Handle. Calling Err
// counts as observing the runtime's failures (see Shutdown).
func (h *Handle) Err() error {
	h.rt.observed.Store(true)
	if r := h.state.Load(); r != nil {
		return r.err // nil for both sentinels
	}
	return nil
}

// settle records the task's outcome, once, and closes the channel Done made.
func (h *Handle) settle(err error) {
	r := succeeded
	if err != nil {
		r = &errRef{err}
	}
	if h.state.Swap(r) == waiting {
		h.mu.Lock() // Done publishes h.done under it
		close(h.done)
		h.mu.Unlock()
	}
}

// ErrSkipped is the sentinel matched (via errors.Is) by every *SkipError.
var ErrSkipped = errors.New("ompss: task skipped")

// SkipError is the outcome of a task the runtime released without running:
// its cause is the upstream task failure or the cancellation error
// (TaskwaitCtx / RunSimCtx). The dependents of a failed task are always
// skipped, and the error keeps propagating along dependence edges until the
// graph drains. Causes chain, so the root failure of a skipped subgraph is
// reachable through errors.As/Unwrap.
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
