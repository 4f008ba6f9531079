package ompss

import "ompssgo/internal/core"

// Batch accumulates task spawns and submits them in one atomic bulk
// operation: the dependence shards of every batched task are locked once
// for the whole group and ready tasks join the scheduler as one chain,
// amortizing the per-submit locking that dominates fine-grained spawn loops
// (see Graph.SubmitBatch). Obtain one with Runtime.Batch or TC.Batch, add
// tasks with Task/Go, and flush with Submit:
//
//	b := rt.Batch()
//	for i := range blocks {
//		b.Task(work(i), ompss.InOut(blocks[i]))
//	}
//	b.Submit()
//	rt.Taskwait()
//
// Dependences — including dependences between tasks of the same batch —
// resolve exactly as if the tasks had been spawned one by one in Task/Go
// call order; only the locking is amortized. A Batch is not safe for
// concurrent use; distinct goroutines should use distinct batches.
type Batch struct {
	tc      *TC
	tasks   []*core.Task
	handles []*Handle
}

// Batch starts an empty submission batch owned by the master thread.
func (rt *Runtime) Batch() *Batch { return rt.main.Batch() }

// Batch starts an empty submission batch owned by this task context.
func (tc *TC) Batch() *Batch { return &Batch{tc: tc} }

// SubmitBatch is the one-shot convenience form: it opens a batch, lets fill
// populate it, and flushes, returning the batched tasks' handles in spawn
// order.
func (rt *Runtime) SubmitBatch(fill func(b *Batch)) []*Handle {
	b := rt.Batch()
	fill(b)
	return b.Submit()
}

// Task adds a task to the batch (see TC.Task) and returns its Handle. The
// task does not run — and its dependences are not registered — until
// Submit flushes the batch; until then the handle reports the task as
// unfinished. If(false) and final-context tasks execute inline immediately,
// exactly as they would outside a batch.
func (b *Batch) Task(body func(*TC), clauses ...Clause) *Handle {
	r := b.tc.newRec(clauses)
	r.body = body
	return b.add(r)
}

// Go adds an error-returning task to the batch (see TC.Go) and returns its
// Handle. The task is submitted when Submit flushes the batch.
func (b *Batch) Go(body func(*TC) error, clauses ...Clause) *Handle {
	r := b.tc.newRec(clauses)
	r.bodyErr = body
	return b.add(r)
}

func (b *Batch) add(r *taskRec) *Handle {
	if !r.enabled || b.tc.final {
		return b.tc.spawnInline(r)
	}
	b.tasks = append(b.tasks, &r.t)
	b.handles = append(b.handles, &r.h)
	return &r.h
}

// Len returns the number of tasks accumulated and not yet flushed.
func (b *Batch) Len() int { return len(b.tasks) }

// Submit flushes the batch: every accumulated task is registered in one
// atomic bulk submission and becomes eligible to run. It returns the
// flushed tasks' handles in spawn order. The batch is empty afterwards and
// may be reused.
//
// On a managed session (a request session, or any session under a global
// MaxInFlight) the whole batch passes admission at the flush: with
// BlockOnFull the flush waits for budget headroom (the batch is then
// admitted whole — budgets are soft by up to Len()−1); with RejectOnFull a
// full budget pre-fails every handle with ErrAdmission, and a flush after
// the session closed pre-fails them with ErrSessionClosed.
func (b *Batch) Submit() []*Handle {
	if len(b.tasks) == 0 {
		return nil
	}
	ts, hs := b.tasks, b.handles
	b.tasks, b.handles = nil, nil
	if s := b.tc.sess; s != nil {
		if s.managed() {
			return s.submitBatchManaged(b.tc, ts, hs)
		}
		s.dom.ChargeN(int64(len(ts)))
	}
	b.tc.rt.be.submitBatch(b.tc, ts)
	return hs
}
