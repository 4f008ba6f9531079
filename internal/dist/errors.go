package dist

import (
	"errors"
	"fmt"
)

// ErrNoWorkers is the outcome of tasks that became ready after every
// worker process was lost: with no execution resources left they fail
// (and their dependents skip) rather than hang the program.
var ErrNoWorkers = errors.New("dist: no live workers")

// workerLostError is the outcome of a task that was in flight on a worker
// whose process died or whose connection broke. Only that worker's
// in-flight tasks receive it; tasks on surviving workers are unaffected,
// and dependents of the lost tasks skip with a skipError wrapping this.
type workerLostError struct {
	Worker int
	Cause  error
}

func (e *workerLostError) Error() string {
	return fmt.Sprintf("dist: worker %d lost: %v", e.Worker, e.Cause)
}

func (e *workerLostError) Unwrap() error { return e.Cause }

// remoteError is a task failure reported by a worker: the kernel returned
// an error, panicked (Panic true), or the task message could not be
// honored. The worker survives; only the task and its dependents are
// affected.
type remoteError struct {
	Worker int
	Kernel string
	Msg    string
	Panic  bool
}

func (e *remoteError) Error() string {
	kind := "error"
	if e.Panic {
		kind = "panic"
	}
	return fmt.Sprintf("dist: kernel %s on worker %d: %s: %s", e.Kernel, e.Worker, kind, e.Msg)
}

// skipError is the outcome of a task released without execution because a
// predecessor failed (skip-on-error over the wire). Unwrap exposes the
// upstream cause, so errors.As finds the originating workerLostError or
// remoteError through any depth of skipping.
type skipError struct {
	Cause error
}

func (e *skipError) Error() string { return fmt.Sprintf("dist: skipped: %v", e.Cause) }
func (e *skipError) Unwrap() error { return e.Cause }
