// Package core implements the task-dataflow engine at the heart of the OmpSs
// programming model: task objects, per-datum dependence tracking
// (RAW/WAR/WAW), ready-task scheduling with locality-aware successor
// placement and work stealing, and the child-counting contexts behind
// taskwait.
//
// The engine performs no execution of its own, and it is safe for
// concurrent use without any external lock. Its locking model is
// decentralized so no single lock serializes the executor:
//
//   - Dependence records (Graph) live in key-hashed shards with per-shard
//     mutexes. Submit two-phase-locks the shards of one task's accesses in
//     ascending index order — deadlock-free, and atomic against concurrent
//     submitters sharing any datum.
//   - Task release is lock-free at the graph level: each task carries an
//     atomic unfinished-predecessor count, pre-charged with a submission
//     guard so a racing Finish can never release a half-wired task, and a
//     tiny per-task lock arbitrates the "add successor vs. finish" race.
//     Whoever decrements npred to zero owns the enqueue.
//   - Ready tasks (Sched) sit in per-worker Chase–Lev lock-free deques
//     (owner LIFO bottom, thieves steal the top) plus a Michael–Scott
//     lock-free global FIFO for breadth-first submissions; statistics are
//     per-lane padded atomics.
//
// The native executor (package ompss) drives this from goroutines with no
// lock of its own; the simulated executor drives the same code from
// discrete-event context where every lock is uncontended and scheduling
// stays deterministic per seed. This is what guarantees that both
// evaluation modes exercise literally the same dependence and scheduling
// policies.
package core

import (
	"sync"
	"sync/atomic"
)

// Mode is the dependence mode of one task argument, mirroring the OmpSs
// pragma clauses input/output/inout (plus the commutative extension).
type Mode int

const (
	// In declares the task reads the datum (RAW dependence on its last
	// writer).
	In Mode = iota
	// Out declares the task overwrites the datum (WAW on the last writer,
	// WAR on readers since).
	Out
	// InOut declares the task reads and writes the datum.
	InOut
	// Commutative declares the task updates the datum in an order-free
	// but mutually exclusive way: commutative tasks on the same datum are
	// unordered among themselves (the executor serializes their bodies
	// with a per-datum lock), while ordinary readers and writers are
	// ordered against all of them.
	Commutative
)

func (m Mode) String() string {
	switch m {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	case Commutative:
		return "commutative"
	}
	return "?"
}

// Access is one (datum, mode) pair of a task. Key identifies the datum by
// exact match — normally a pointer, as in OmpSs's by-reference dependences;
// the paper's benchmarks rely on whole-object annotations and manual
// circular-buffer renaming, which exact keys express directly. Bytes is the
// datum footprint used by the simulated machine's memory model; zero is
// valid (dependence only, no modeled traffic).
type Access struct {
	Key   any
	Mode  Mode
	Bytes int64
	// Datum, when non-nil, is a pre-registered handle for Key (see
	// Graph.Register): Submit uses its cached shard index and record
	// pointer instead of hashing Key. Key must still name the same datum —
	// the clause layer fills both from the handle.
	Datum *Datum
}

// Reads reports whether the access observes the datum's value.
func (a Access) Reads() bool {
	return a.Mode == In || a.Mode == InOut || a.Mode == Commutative
}

// Writes reports whether the access produces a new datum value.
func (a Access) Writes() bool { return a.Mode == Out || a.Mode == InOut }

// Task is one node of the dataflow graph. The fields are grouped by who
// touches them, so the lanes that dispatch and finish a task stay off the
// cache lines only its submitter needs: first what dispatch and Finish read
// and write, then what is written once at spawn for the wiring and traces.
type Task struct {
	// Owner is an opaque executor backpointer: the spawn record this task is
	// embedded in, which holds the body the executor runs at dispatch. The
	// engine never touches it (a bare Task is a pure dependence node).
	Owner any
	// Parent is the context (spawning scope) whose taskwait covers this
	// task.
	Parent *Context
	// Domain is the failure/cancellation/accounting domain this task belongs
	// to (nil for domain-less tasks; see Domain). Set before submission.
	Domain *Domain
	// Priority biases dispatch order: higher-priority ready tasks are
	// popped before FIFO-ordered peers.
	Priority int
	// Worker records where the task executed (set by the executor).
	Worker int

	npred int32 // atomic: unfinished predecessors (+1 submission guard while wiring)
	state int32 // atomic taskState
	// affinity is the task's placement hint, encoded as home shard + 1 so
	// the zero value (struct-literal construction) means "no hint". Set via
	// SetAffinity; the scheduler reads it through AffinityShard.
	affinity uint32
	// skipped records that the executor released this task without running
	// its body (failure policy or cancellation).
	skipped atomic.Bool
	succMu  sync.Mutex // guards succs and done against the add-successor/Done vs. finish race
	succs   []*Task    // tasks waiting on this one; the first lives in succBuf
	succBuf [1]*Task
	// done is created by Done for a caller that actually selects on it; a
	// task nobody waits on by channel never has one.
	done chan struct{}
	// outcome is the task's final error, written by Finish before the task
	// turns finished (so any reader that observed Done/Finished sees it).
	outcome error
	// upstream is the first error that reached this task along a dependence
	// edge from a failing predecessor, set by the predecessor's Finish
	// before it drops this task's npred. The executor consults it at
	// dispatch to decide whether to skip the body.
	upstream atomic.Pointer[errBox]
	// bindings records the datum instances this task's accesses were wired
	// against (renameable datums only — see rename.go). Appended under the
	// owning shard lock during Submit, read by the body via PayloadFor,
	// released by Finish.
	bindings []verBinding
	// renamed / renameFB attribute the graph's rename decisions to this
	// task: a write-mode access received a fresh instance, or stalled only
	// because the in-flight version cap was full. Written under the owning
	// shard lock during Submit's wiring, read by the executor after the
	// task finished (ordered by the submit→ready→run→finish chain), so no
	// atomics are needed.
	renamed  bool
	renameFB bool

	ID       uint64
	Label    string
	Accesses []Access
	// CPUCost is the simulated execution cost hint in nanoseconds; the
	// native executor ignores it.
	CPUCost int64
	// Iters is the number of loop iterations this task covers when it was
	// spawned as one TaskLoop chunk (0 for ordinary tasks). The feedback
	// controller divides measured execution time by it to learn per-
	// iteration cost for the task's label.
	Iters int
	// Preds records the IDs of the tasks this one had to wait for at
	// submission (for tracing and DOT export; kept after they finish). The
	// first two live in predBuf, so a chain task allocates nothing for them.
	Preds   []uint64
	predBuf [2]uint64
}

// Renamed reports whether any of the task's write-mode accesses received a
// fresh renamed instance. Valid once the task finished.
func (t *Task) Renamed() bool { return t.renamed }

// RenameFallback reports whether any of the task's write-mode accesses
// stalled on its WAR/WAW edges only because the in-flight version cap was
// full. Valid once the task finished.
func (t *Task) RenameFallback() bool { return t.renameFB }

// SetAffinity hints that the task should execute near the data of the given
// dependence shard (see Policy.HomeLane). Call before submission.
func (t *Task) SetAffinity(shard uint32) { t.affinity = shard + 1 }

// AffinityShard returns the task's affinity hint and whether one was set.
func (t *Task) AffinityShard() (uint32, bool) {
	if t.affinity == 0 {
		return 0, false
	}
	return t.affinity - 1, true
}

// bindRead records that the task observes version v of the chain. Called
// under the owning shard lock.
func (t *Task) bindRead(ch *verChain, v *version) {
	v.refs++
	t.bindings = append(t.bindings, verBinding{chain: ch, read: v, readVID: v.vid})
}

// bindWrite records that the task writes version v in place (a non-renamed
// write: the instance it reads, if any, is the same one). readVID is the
// pre-bump version number an InOut observes (0 for a pure Out); the
// caller bumps v.vid to the produced version before calling. Called under
// the owning shard lock.
func (t *Task) bindWrite(ch *verChain, v *version, readVID uint64) {
	v.refs++
	t.bindings = append(t.bindings, verBinding{chain: ch, write: v, readVID: readVID, writeVID: v.vid})
}

// bindRename records a renamed write: the task produces nv; for InOut,
// prev is the instance whose value seeds nv (copy-in) and the task holds a
// read ref on it. Called under the owning shard lock.
func (t *Task) bindRename(ch *verChain, prev, nv *version, needCopy bool) {
	nv.refs++
	b := verBinding{chain: ch, read: prev, write: nv, needCopy: needCopy, writeVID: nv.vid}
	if prev != nil {
		prev.refs++
		b.readVID = prev.vid
	}
	t.bindings = append(t.bindings, b)
}

// errBox wraps an error for atomic first-wins publication.
type errBox struct{ err error }

// noteUpstream records err as a dependence-edge failure; only the first
// error sticks.
func (t *Task) noteUpstream(err error) {
	if t.upstream.Load() != nil {
		return
	}
	t.upstream.CompareAndSwap(nil, &errBox{err})
}

// Upstream returns the first error propagated to this task along a
// dependence edge, or nil.
func (t *Task) Upstream() error {
	if b := t.upstream.Load(); b != nil {
		return b.err
	}
	return nil
}

// Err returns the task's outcome. It is nil until the task finishes; after
// Done is closed (or Finished reports true) it is the error recorded by
// Finish, nil on success.
func (t *Task) Err() error {
	if !t.Finished() {
		return nil
	}
	return t.outcome
}

// MarkSkipped flags that the executor released this task without running
// its body.
func (t *Task) MarkSkipped() { t.skipped.Store(true) }

// Skipped reports whether the executor released this task without running
// its body.
func (t *Task) Skipped() bool { return t.skipped.Load() }

// addSucc links s as a successor of t unless t already finished (then no
// edge is needed). Called by Graph.Submit with shard locks held; the
// per-task lock is a leaf, so lock order is always shards → task.
func (t *Task) addSucc(s *Task) bool {
	t.succMu.Lock()
	defer t.succMu.Unlock()
	if atomic.LoadInt32(&t.state) == stateFinished {
		return false
	}
	if t.succs == nil {
		t.succs = t.succBuf[:0]
	}
	t.succs = append(t.succs, s)
	return true
}

// takeSuccsAndFinish atomically marks t finished and detaches its successor
// list and completion channel: after it returns, addSucc refuses new edges,
// so Finish decrements exactly the successors that were wired, and Done
// answers with a closed channel of its own, so Finish closes exactly the
// channel that was handed out.
func (t *Task) takeSuccsAndFinish() (succs []*Task, done chan struct{}) {
	t.succMu.Lock()
	atomic.StoreInt32(&t.state, stateFinished)
	succs, done = t.succs, t.done
	t.succs = nil
	t.succMu.Unlock()
	return succs, done
}

type taskState int32

const (
	stateCreated int32 = iota
	stateReady
	stateRunning
	stateFinished
)

// closedDone is what Done answers for a task that finished before anyone
// asked for its channel.
var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Done returns a channel closed when the task finishes. The channel is
// created on first use — before or after submission, from any goroutine —
// so tasks nobody selects on never pay for one.
func (t *Task) Done() <-chan struct{} {
	t.succMu.Lock()
	defer t.succMu.Unlock()
	if t.done == nil {
		if atomic.LoadInt32(&t.state) == stateFinished {
			return closedDone
		}
		t.done = make(chan struct{})
	}
	return t.done
}

// Finished reports whether the task has completed. Safe without the engine
// lock.
func (t *Task) Finished() bool { return atomic.LoadInt32(&t.state) == stateFinished }

// NPred returns the number of unfinished predecessors.
func (t *Task) NPred() int { return int(atomic.LoadInt32(&t.npred)) }

// Succs returns a snapshot of the successor list (exposed for tracing and
// tests).
func (t *Task) Succs() []*Task {
	t.succMu.Lock()
	defer t.succMu.Unlock()
	return append([]*Task(nil), t.succs...)
}

// Context counts unfinished direct children of a spawning scope (the main
// program, or a task that spawns nested tasks). Taskwait blocks until the
// caller's context drains.
type Context struct {
	pending int64
	// Depth is 0 for the program's implicit task, +1 per nesting level.
	Depth int

	firstErr atomic.Pointer[errBox] // first failed direct child's error
}

// Pending returns the number of unfinished direct children.
func (c *Context) Pending() int64 { return atomic.LoadInt64(&c.pending) }

func (c *Context) add(n int64) { atomic.AddInt64(&c.pending, n) }

// NoteErr records a direct-child failure of this scope; the first error
// sticks. Graph.Finish calls it for deferred tasks; the executor layer
// calls it for undeferred (inline) ones, which never enter the graph.
func (c *Context) NoteErr(err error) {
	if err == nil || c.firstErr.Load() != nil {
		return
	}
	c.firstErr.CompareAndSwap(nil, &errBox{err})
}

// TakeErr returns the first error of a direct child that finished
// unsuccessfully in this scope (including skipped children) and clears it,
// so each taskwait round reports the failures of its own children.
func (c *Context) TakeErr() error {
	if b := c.firstErr.Swap(nil); b != nil {
		return b.err
	}
	return nil
}
