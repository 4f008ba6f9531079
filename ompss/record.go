package ompss

import (
	"sync"

	"ompssgo/internal/core"
	"ompssgo/internal/poolcheck"
)

// taskRec is the engine's record behind a spawn: the engine's task node, the
// context the body runs in (a TC plus the core.Context counting the body's
// own children), the body in either form, and the clause scratchpad —
// newRec applies each clause straight into the record (taskRec.apply),
// accesses into the inline array first. A Go spawn's future is a Handle of its own (see Handle), and a Task
// spawn has none, so a record is only ever read by the runtime, and records
// are recycled: each goes back to the pool (putRec) once nothing can touch
// it any more. Every holder that may touch a record after its task finishes
// takes a reference on r.t (core.Task.Hold) and drops it when done:
//
//   - the spawning thread, from newRec until spawn returns: the task may be
//     released, run and finished by others before spawn reads it for the
//     last time;
//   - the executing lane, from submission until runTask's last use of it;
//   - every slot of the dependence tracker that names the task (a datum's
//     or an instance's last writer, readers and commuters), until the slot
//     lets go of it — so a failed predecessor stays readable for a later
//     reader that inherits its error;
//   - each unfinished child, whose Parent points into the record's ctx;
//   - each taskwait on a key, for the writers it waits for.
//
// The last Drop resets the record and pools it, so no reader can ever see a
// reused record.
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

	h      *Handle        // Go's future; nil for a Task, which returns none
	parent *core.Task     // the spawning task (nil at a master): held while t is unfinished
	ctx    core.Context   // scope of the body's own children
	acc    [3]core.Access // backs t.Accesses for the usual one-to-three-clause task

	// drained reports that ctx has no unfinished children: the body's
	// Taskwait predicate, built once by newTaskRec and kept across reuse.
	drained func() bool
}

// Pooled records travel in bins of recBinSize, so that records recycled on
// one core and spawned on another — the run of a fine-grain program, where
// the master spawns what the workers finish — cross between cores a bin at a
// time rather than one pool operation each. A core fills and empties the
// bin it holds in openBins, whose per-P slot keeps it local; a full bin goes
// to fullBins for whichever core spawns next, and an emptied one to
// spareBins for whichever core recycles next. All three are sync.Pools, so
// the collector drops idle records with them.
const recBinSize = 32

type recBin struct {
	n    int
	recs [recBinSize]*taskRec
}

var openBins, fullBins, spareBins sync.Pool

// newTaskRec is the one place a record is made, when no bin has one.
func newTaskRec() *taskRec {
	if p := poolcheck.Active(); p != nil {
		p.MadeRecord()
	}
	r := &taskRec{}
	r.drained = func() bool { return r.ctx.Pending() == 0 }
	return r
}

// getRec takes a pooled record, or makes one.
func getRec() *taskRec {
	b, _ := openBins.Get().(*recBin)
	if b == nil || b.n == 0 {
		if f, _ := fullBins.Get().(*recBin); f != nil {
			if b != nil {
				spareBins.Put(b)
			}
			b = f
		} else if b == nil {
			return newTaskRec()
		}
	}
	var r *taskRec
	if b.n > 0 {
		b.n--
		r, b.recs[b.n] = b.recs[b.n], nil
	} else {
		r = newTaskRec()
	}
	openBins.Put(b)
	return r
}

// putRec pools a reset record.
func putRec(r *taskRec) {
	b, _ := openBins.Get().(*recBin)
	if b == nil || b.n == recBinSize {
		if b != nil {
			fullBins.Put(b)
		}
		if b, _ = spareBins.Get().(*recBin); b == nil {
			if p := poolcheck.Active(); p != nil {
				p.MadeBin()
			}
			b = new(recBin)
		}
	}
	b.recs[b.n] = r
	b.n++
	openBins.Put(b)
}

// reset clears everything but drained and the capacity of the task's
// binding list, so a pooled record pins no body, key, domain or handle.
func (r *taskRec) reset() {
	r.tc, r.body, r.bodyErr, r.enabled, r.commutative = TC{}, nil, nil, false, false
	r.t.Reset()
	r.h, r.parent, r.ctx, r.acc = nil, nil, core.Context{}, [3]core.Access{}
}

// Settle hands the task's outcome to its Handle, if it has one (only a Go
// spawn does). Graph.Finish calls it, and so do the spawn paths that never
// reach the graph: an inline or a refused spawn.
func (r *taskRec) Settle(err error) {
	if r.h != nil {
		r.h.settle(err)
	}
}

// Recycle is called by the last Drop of r.t: it resets r and pools it.
func (r *taskRec) Recycle() {
	r.reset()
	if p := poolcheck.Active(); p != nil {
		p.TakeBack()
		if p.Poison {
			r.t.ID, r.t.Label = ^uint64(0), "recycled"
			r.body = func(*TC) { panic("ompss: a recycled task record was run") }
		}
	}
	putRec(r)
}

// newRec is the one place a task context is made: it binds a pooled record
// to the spawning scope — parent context, session domain, and the child TC
// the body will see — runs the clauses over it, then adds the session's
// tenant boost. The record comes with the spawner's reference. Deferred and
// inline spawns both start here.
func (tc *TC) newRec(clauses []Clause) *taskRec {
	r := getRec()
	if p := poolcheck.Active(); p != nil {
		p.HandOut()
		r.reset() // it may carry poison
	}
	r.enabled = true
	r.t.Accesses = r.acc[:0]
	r.t.Owner = r
	r.t.Parent = tc.ctx
	r.parent = tc.task
	s := tc.sess
	if s != nil {
		// The session is the task's failure/cancellation/accounting domain.
		r.t.Domain = s.dom
	}
	r.ctx.Depth = tc.ctx.Depth + 1
	r.tc = TC{rt: tc.rt, ctx: &r.ctx, task: &r.t, sess: s}
	for _, c := range clauses {
		r.apply(c.c)
	}
	if s != nil {
		// The tenant class boosts the task onto the matching priority lane.
		r.t.Priority += s.cfg.tenant
	}
	// The spawner's reference is the first fenced write, after the plain
	// ones: a record recycled on another core arrives line by line, and
	// the plain writes fetch its lines together where a fence first would
	// wait for them one at a time.
	r.t.Hold()
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
// never runs. It goes through Settle, as Finish and spawnInline do, so the
// nil check for a handle-less Task stays in one place. A refused Task has no
// handle, so Settle drops the SkipError built here: one allocation per
// refusal, accepted because only a refused spawn pays it. Nothing reports a
// refused Task: it was spawned into a closed or cancelled session.
func (r *taskRec) refuse(cause error) { r.Settle(&SkipError{Label: r.t.Label, Cause: cause}) }

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
