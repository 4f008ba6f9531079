package core

import "sync/atomic"

// Domain is a failure/cancellation/accounting domain: the engine-level half
// of a session (the executor layer's request scope). Every task may carry a
// Domain pointer; tasks sharing a Domain form one error domain — failures
// propagate along dependence edges only between tasks of the same domain,
// and a domain cancellation induces skip-release only for its own tasks —
// and one admission-accounting unit: the executor charges the domain before
// submitting and Finish credits it, so InFlight (submitted − finished, never
// an underestimate) is usable as a backpressure budget.
//
// The zero Domain is valid (no overrides, never cancelled). A nil Domain on
// a task means "no domain": such tasks propagate failures to, and accept
// them from, other nil-domain tasks only.
type Domain struct {
	// ID names the domain in traces (obs events tag submissions with it).
	ID uint64
	// Rename overrides the graph's dependence-renaming policy for this
	// domain's tasks (RenameInherit leaves the graph's setting in force);
	// RenameCap, when positive, overrides the per-datum in-flight version
	// cap the same way. Set before the first submission.
	Rename    RenameOverride
	RenameCap int
	// Quiet asks the executor to suppress per-task observability events for
	// this domain's tasks. The engine itself does not consult it.
	Quiet bool
	// Owner is an opaque executor backpointer (the session). The engine
	// never touches it.
	Owner any
	// Scoped makes the domain own the datums interned on its behalf — by
	// Graph.Intern, or by a raw-key access of one of its tasks — so that
	// Graph.Release drops them together. Datums interned for an unscoped
	// (or nil) domain live as long as the graph. Set before first use.
	Scoped bool
	// datums are the datums this domain created, guarded by the graph's
	// intern mutex.
	datums []*Datum

	cancelled atomic.Pointer[errBox]

	// Split by writer, like the graph's counters: submitted is written by
	// the charging (submit) side only, the rest by Finish only, each group
	// on a line of its own and apart from the read-mostly fields above.
	// InFlight is derived.
	_         [64]byte
	submitted atomic.Uint64
	_         [64]byte
	finished  atomic.Uint64
	failed    atomic.Uint64
	skipped   atomic.Uint64
}

// RenameOverride is a per-domain tri-state override of the graph's
// dependence-renaming policy.
type RenameOverride int8

const (
	// RenameInherit keeps the graph-wide renaming setting.
	RenameInherit RenameOverride = 0
	// RenameForceOn renames for this domain's tasks even when the graph-wide
	// setting is off.
	RenameForceOn RenameOverride = 1
	// RenameForceOff never renames for this domain's tasks.
	RenameForceOff RenameOverride = -1
)

// DomainStats is a snapshot of one domain's task accounting.
type DomainStats struct {
	Submitted uint64
	Finished  uint64
	Failed    uint64 // finished with a non-nil outcome (includes skipped)
	Skipped   uint64 // released without running (cancellation / failure policy)
	InFlight  int64  // charged but not yet finished
}

// Cancel puts the domain into cancellation drain: the executor skip-releases
// every not-yet-started task of this domain, finishing each with the cause.
// Idempotent; the first cause wins. Reports whether this call installed the
// cause.
func (d *Domain) Cancel(cause error) bool {
	if cause == nil {
		return false
	}
	if d.cancelled.Load() != nil {
		return false
	}
	return d.cancelled.CompareAndSwap(nil, &errBox{cause})
}

// CancelCause returns the domain's cancellation cause, or nil when the
// domain is live.
func (d *Domain) CancelCause() error {
	if b := d.cancelled.Load(); b != nil {
		return b.err
	}
	return nil
}

// Charge records one task entering the domain (executor-side, before the
// task is submitted, so InFlight is usable as a hard admission budget).
func (d *Domain) Charge() { d.submitted.Add(1) }

// Uncharge rolls back a Charge whose task was never submitted (the session
// closed between admission and submission).
func (d *Domain) Uncharge() { d.submitted.Add(^uint64(0)) }

// taskFinished credits the domain for one finished task (called by
// Graph.Finish).
func (d *Domain) taskFinished(err error, skipped bool) {
	if err != nil {
		d.failed.Add(1)
	}
	if skipped {
		d.skipped.Add(1)
	}
	// Last: this is what drops InFlight, so whoever sees the domain drained
	// also sees the failure counts above.
	d.finished.Add(1)
}

// InFlight returns the number of charged-but-unfinished tasks. Finished is
// read first, so under concurrency the estimate only errs high — the safe
// side for an admission budget, and zero still means drained.
func (d *Domain) InFlight() int64 {
	fin := d.finished.Load()
	return int64(d.submitted.Load() - fin)
}

// Stats returns a snapshot of the domain counters.
func (d *Domain) Stats() DomainStats {
	fin := d.finished.Load()
	sub := d.submitted.Load()
	return DomainStats{
		Submitted: sub,
		Finished:  fin,
		Failed:    d.failed.Load(),
		Skipped:   d.skipped.Load(),
		InFlight:  int64(sub - fin),
	}
}

// sameDomain reports whether two tasks belong to one failure domain (both
// nil counts as one domain). Failure propagation along dependence edges is
// confined to a domain: a cross-domain edge still orders execution, but the
// successor never inherits the foreign failure — one session's error
// cascade cannot skip another session's tasks.
func sameDomain(a, b *Task) bool { return a.Domain == b.Domain }
