package ompss

import (
	"time"

	"ompssgo/internal/core"
)

// Clause annotates a task at spawn time, mirroring the OmpSs pragma clause
// vocabulary (input/output/inout plus cost, priority, label, if). A clause is
// one pointer to a record of what it declares, which the spawn applies to
// its task in declaration order (TC.newRec). The constructors inline, so a
// clause built in the argument list of a concrete receiver's spawn — a *TC's
// Task or Go, such as API.Master returns — stays on the spawner's
// stack and costs no allocation.
type Clause struct{ c *clause }

// clauseOp says which field of a clause record carries its declaration.
type clauseOp uint8

const (
	opKeys     clauseOp = iota // mode on every key of the []any in key
	opKey                      // mode on key, with a footprint of n bytes
	opCost                     // n nanoseconds of simulated computation
	opPriority                 // priority n
	opLabel                    // label
	opIf                       // deferred unless n is 0
)

// clause is a Clause's record. Its fields stay apart rather than sharing one
// any: a label or an int64 boxed into an interface would allocate. Only the
// rare multi-key list is boxed, in key, so the record is 56 bytes and an
// escaping clause takes the 64-byte size class.
type clause struct {
	op    clauseOp
	mode  core.Mode
	key   any
	label string
	n     int64
}

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

// accesses is the clause of In, Out and InOut. The record never keeps the
// variadic slice itself, so that slice stays on the caller's stack: one key,
// the usual case, moves into the record, and several are copied.
func accesses(m core.Mode, keys []any) Clause {
	if len(keys) == 1 {
		return Clause{&clause{op: opKey, mode: m, key: keys[0]}}
	}
	return Clause{&clause{op: opKeys, mode: m, key: append([]any(nil), keys...)}}
}

// In declares read (input) dependences on the given keys. A key identifies
// a datum by exact match — pass the same pointer the producing task
// declared, or a registered *Datum handle for the allocation-free fast
// path.
func In(keys ...any) Clause { return accesses(core.In, keys) }

// Out declares write (output) dependences on the given keys (raw keys or
// *Datum handles).
func Out(keys ...any) Clause { return accesses(core.Out, keys) }

// InOut declares read-write (inout) dependences on the given keys (raw keys
// or *Datum handles).
func InOut(keys ...any) Clause { return accesses(core.InOut, keys) }

// InSized is In with a byte footprint for the simulated memory model.
func InSized(key any, bytes int64) Clause {
	return Clause{&clause{op: opKey, mode: core.In, key: key, n: bytes}}
}

// OutSized is Out with a byte footprint for the simulated memory model.
func OutSized(key any, bytes int64) Clause {
	return Clause{&clause{op: opKey, mode: core.Out, key: key, n: bytes}}
}

// Cost declares the task's computational cost for the simulated machine
// (native execution ignores it; the body's real work is the cost there).
func Cost(d time.Duration) Clause { return Clause{&clause{op: opCost, n: int64(d)}} }

// Priority biases dispatch: ready tasks with higher priority are scheduled
// before FIFO-ordered peers. A task with p > 0 joins the shared ready queue
// at level p, whether it is ready at submission or released by a finishing
// task, and every worker takes the highest level's oldest task before its
// own deque; p ≤ 0 is ordinary work.
func Priority(p int) Clause { return Clause{&clause{op: opPriority, n: int64(p)}} }

// Label names the task in traces and their exports.
func Label(l string) Clause { return Clause{&clause{op: opLabel, label: l}} }

// If controls deferral: If(false) executes the task undeferred in the
// spawning thread (still honoring cost accounting), as in OmpSs. Use it to
// collapse task granularity dynamically.
func If(cond bool) Clause {
	c := &clause{op: opIf}
	if cond {
		c.n = 1
	}
	return Clause{c}
}

// apply writes c's declaration into the record (TC.newRec calls it once per
// clause, in declaration order).
func (r *taskRec) apply(c *clause) {
	switch c.op {
	case opKeys:
		for _, k := range c.key.([]any) {
			r.t.Accesses = append(r.t.Accesses, access(k, c.mode, 0))
		}
	case opKey:
		r.t.Accesses = append(r.t.Accesses, access(c.key, c.mode, c.n))
	case opCost:
		r.t.CPUCost = c.n
	case opPriority:
		r.t.Priority = int(c.n)
	case opLabel:
		r.t.Label = c.label
	case opIf:
		r.enabled = r.enabled && c.n != 0
	}
}
