package ompss

import (
	"time"

	"ompssgo/internal/core"
)

// Clause annotates a task at spawn time, mirroring the OmpSs pragma clause
// vocabulary (input/output/inout plus cost, priority, label, if). A clause
// writes straight into the spawn's task record (see taskRec).
type Clause func(*taskRec)

// access builds one core.Access from a dependence key, recognizing
// registered *Datum handles: a handle contributes its interned record (the
// fast submit path); any other key is used verbatim, and the runtime interns
// it at submission.
func access(k any, m core.Mode, bytes int64) core.Access {
	if d, ok := k.(*Datum); ok {
		return core.Access{Key: d.c.Key, Mode: m, Bytes: bytes, Datum: d.c}
	}
	return core.Access{Key: k, Mode: m, Bytes: bytes}
}

// In declares read (input) dependences on the given keys. A key identifies
// a datum by exact match — pass the same pointer the producing task
// declared, or a registered *Datum handle for the allocation-free fast
// path.
func In(keys ...any) Clause {
	return func(r *taskRec) {
		for _, k := range keys {
			r.t.Accesses = append(r.t.Accesses, access(k, core.In, 0))
		}
	}
}

// Out declares write (output) dependences on the given keys (raw keys or
// *Datum handles).
func Out(keys ...any) Clause {
	return func(r *taskRec) {
		for _, k := range keys {
			r.t.Accesses = append(r.t.Accesses, access(k, core.Out, 0))
		}
	}
}

// InOut declares read-write (inout) dependences on the given keys (raw keys
// or *Datum handles).
func InOut(keys ...any) Clause {
	return func(r *taskRec) {
		for _, k := range keys {
			r.t.Accesses = append(r.t.Accesses, access(k, core.InOut, 0))
		}
	}
}

// Commutative declares order-free but mutually exclusive updates (the OmpSs
// commutative extension): commutative tasks on the same key may execute in
// any order but never simultaneously — the runtime serializes their bodies
// with a per-key lock — while ordinary readers and writers are ordered
// against all of them. Keys may be raw keys or *Datum handles. Declaration
// order does not matter: the runtime acquires multi-key lock sets in a
// globally consistent order, so tasks listing the same keys in different
// orders cannot deadlock.
func Commutative(keys ...any) Clause {
	return func(r *taskRec) {
		for _, k := range keys {
			r.t.Accesses = append(r.t.Accesses, access(k, core.Commutative, 0))
		}
		r.commutative = true
	}
}

// InSized is In with a byte footprint for the simulated memory model.
func InSized(key any, bytes int64) Clause {
	return func(r *taskRec) {
		r.t.Accesses = append(r.t.Accesses, access(key, core.In, bytes))
	}
}

// OutSized is Out with a byte footprint for the simulated memory model.
func OutSized(key any, bytes int64) Clause {
	return func(r *taskRec) {
		r.t.Accesses = append(r.t.Accesses, access(key, core.Out, bytes))
	}
}

// Cost declares the task's computational cost for the simulated machine
// (native execution ignores it; the body's real work is the cost there).
func Cost(d time.Duration) Clause { return func(r *taskRec) { r.t.CPUCost = int64(d) } }

// Priority biases dispatch: ready tasks with higher priority are scheduled
// before FIFO-ordered peers. On the native runtime, priority tasks released
// by a finishing task land on that worker's high-priority LIFO lane and are
// popped before everything else on the lane; priority tasks that are ready
// at submission jump the global FIFO through a priority-ordered side queue.
func Priority(p int) Clause { return func(r *taskRec) { r.t.Priority = p } }

// Affinity hints that the task should execute near the home of the given
// datum: the task is submitted to the mailbox of the lane its dependence
// shard maps to (see Tuning.Affinity), so work lands where its
// data lives and domain-ordered stealing drains it with near workers first.
// The key may be a registered *Datum handle or any raw dependence key, which
// is interned like a raw-key access of the task. A datum's home is fixed by
// the order in which the runtime first saw its key, so placement repeats
// exactly from run to run. A later Affinity clause overrides an earlier one.
// The hint never affects correctness, only placement; it is ignored under
// Tuning{Affinity: Off}.
func Affinity(key any) Clause {
	return func(r *taskRec) { r.t.SetAffinity(r.tc.rt.intern(key, r.t.Domain).Shard()) }
}

// Label names the task in traces and their exports.
func Label(l string) Clause { return func(r *taskRec) { r.t.Label = l } }

// If controls deferral: If(false) executes the task undeferred in the
// spawning thread (still honoring cost accounting), as in OmpSs. Use it to
// collapse task granularity dynamically.
func If(cond bool) Clause { return func(r *taskRec) { r.enabled = r.enabled && cond } }
