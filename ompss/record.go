package ompss

import "ompssgo/internal/core"

// taskRec is the one heap object behind a spawn: the engine's task node, the
// context the body runs in (a TC plus the core.Context counting the body's
// own children), the future handed back to the spawner, the body in either
// form, and the clause scratchpad — clauses write straight into the record,
// accesses into the inline array first — fused so a deferred spawn
// allocates once. Records are never recycled: a Handle points into its
// record and reads it for as long as anyone holds it.
type taskRec struct {
	// Laid out like core.Task: what the dispatching lane touches comes
	// first and together.
	tc TC // what the body receives: tc.ctx is &ctx, tc.task is &t
	// Exactly one is set: Task spawns body, Go spawns bodyErr.
	body        func(*TC)
	bodyErr     func(*TC) error
	enabled     bool // If clause: false runs the task inline in the spawner
	commutative bool // some access is Commutative: exec takes the key locks
	t           core.Task

	h   Handle
	ctx core.Context   // scope of the body's own children
	acc [3]core.Access // backs t.Accesses for the usual one-to-three-clause task
}

// newRec is the one place a task context is made: it binds a fresh record to
// the spawning scope — parent context, session domain, and the child TC the
// body will see — runs the clauses over it (an Affinity clause on a raw key
// interns it on behalf of the domain), then adds the session's tenant boost.
// Deferred and inline spawns both start here.
func (tc *TC) newRec(clauses []Clause) *taskRec {
	r := &taskRec{enabled: true}
	r.t.Accesses = r.acc[:0]
	r.t.Owner = r
	r.t.Parent = tc.ctx
	s := tc.sess
	if s != nil {
		// The session is the task's failure/cancellation/accounting domain.
		r.t.Domain = s.dom
	}
	r.ctx.Depth = tc.ctx.Depth + 1
	r.tc = TC{rt: tc.rt, ctx: &r.ctx, task: &r.t, sess: s}
	r.h.rt, r.h.t = tc.rt, &r.t
	for _, c := range clauses {
		c(r)
	}
	if s != nil {
		// The tenant class boosts the task onto the matching priority lane.
		r.t.Priority += s.cfg.tenant
	}
	return r
}

// exec runs the body on the record's own context, under the commutative
// locks its accesses call for.
func (r *taskRec) exec() error {
	if r.commutative {
		if keys := commutativeKeys(r.t.Accesses); len(keys) > 0 {
			return r.execCommutative(keys)
		}
	}
	return r.call()
}

func (r *taskRec) call() error {
	if r.bodyErr != nil {
		return r.bodyErr(&r.tc)
	}
	r.body(&r.tc)
	return nil
}

// execCommutative is exec's slow path, apart so that the closure (and the
// err it captures, which escapes) costs the common path nothing. The
// lifecycle acquires the per-key locks in a globally consistent order (see
// lifecycle.commutative), so tasks declaring the same keys in different
// clause orders cannot deadlock.
func (r *taskRec) execCommutative(keys []any) (err error) {
	r.tc.rt.lc.commutative(&r.tc, keys, func() { err = r.call() })
	return err
}

// run dispatches a deferred task on the lane MarkRunning recorded: the one
// recover of the spawn path turns a panicking body into the task's outcome
// instead of unwinding the worker.
func (r *taskRec) run() (err error) {
	r.tc.worker = r.t.Worker
	defer func() {
		if p := recover(); p != nil {
			err = &TaskPanic{Label: r.t.Label, Value: p}
		}
	}()
	return r.exec()
}

// refuse settles the handle of a spawn the session would not take: the task
// never runs.
func (r *taskRec) refuse(cause error) *Handle {
	return r.h.settle(&SkipError{Label: r.t.Label, Cause: cause})
}

// commutativeKeys collects the keys of a task's Commutative accesses.
func commutativeKeys(accesses []core.Access) []any {
	var keys []any
	for _, a := range accesses {
		if a.Mode == core.Commutative {
			keys = append(keys, a.Key)
		}
	}
	return keys
}
