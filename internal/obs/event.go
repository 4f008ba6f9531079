// Package obs is the low-overhead observability subsystem: per-worker
// fixed-capacity ring buffers record a widened task-lifecycle event
// vocabulary with no shared mutex on the record path, and an offline
// analyzer merges the rings into one ordered stream and computes the
// paper-style reports — instantaneous-parallelism profile, critical path
// through the dependence graph, per-worker utilization and steal matrix,
// and top-N tasks by exclusive time. Exporters turn the same stream into
// Chrome trace-event JSON (chrome://tracing, Perfetto) and a
// Paraver-flavored CSV timeline.
//
// Record-path contract (enforced by the alloc-budget tests): emitting an
// event performs zero heap allocations and takes no lock shared between
// workers — one global atomic sequence fetch-add (the merge order), one
// per-ring atomic slot claim, and one per-slot CAS publication (uncontended
// except when a wrapped ring aliases two writers onto one slot). Timestamps
// are epoch-relative: wall-clock nanoseconds for native runs, virtual
// nanoseconds for simulated ones — the recorder never interprets them.
package obs

// Kind labels one recorded event. The vocabulary covers the full lifecycle
// the paper's evaluation reasons about: dependence structure (Submit, Edge),
// readiness and execution (Ready, Start, End, Skip), scheduler mechanics
// (Steal, IdleEnter/IdleExit), synchronization (TaskwaitEnter/TaskwaitExit),
// and dependence renaming (Rename, Writeback).
type Kind uint8

const (
	// EvSubmit records task creation; Arg is the number of unfinished
	// predecessors the task waited on, Label its Label clause.
	EvSubmit Kind = iota
	// EvEdge records one dependence edge at submission: Task is the
	// successor, Arg the predecessor's task ID.
	EvEdge
	// EvReady records a task becoming runnable (at submission, or released
	// by a finishing predecessor on the recording worker).
	EvReady
	// EvStart records dispatch onto a worker lane.
	EvStart
	// EvEnd records completion (body returned, or skip-release finished).
	EvEnd
	// EvSkip records that the executor released the task without running
	// its body (upstream failure or cancellation).
	EvSkip
	// EvSteal records a successful steal by the recording worker; Arg is
	// the victim lane.
	EvSteal
	// EvIdleEnter records a worker running out of visible work.
	EvIdleEnter
	// EvIdleExit records an idle worker obtaining work again.
	EvIdleExit
	// EvTaskwaitEnter records a thread entering taskwait/taskwait-on.
	EvTaskwaitEnter
	// EvTaskwaitExit records the matching wait completing.
	EvTaskwaitExit
	// EvRename records a write-mode access receiving a fresh renamed
	// instance instead of WAR/WAW edges (Task is the renamed writer).
	EvRename
	// EvWriteback records a drained version chain copying its last good
	// instance back onto canonical storage (Task is that instance's
	// program-order last writer, 0 when unknown).
	EvWriteback
	// EvXfer records a datum version copied to another address space (the
	// distributed backend's copy-in, or the Done-carry back): Task is the
	// task the transfer serves, Arg the byte count, Worker the lane of the
	// process the bytes moved to or from.
	EvXfer
	// EvXferHit records a transfer avoided by a per-worker version cache:
	// the (datum, version) pair was already resident. Task is the served
	// task, Arg the bytes NOT moved.
	EvXferHit
	// EvChain records the distributed coordinator pushing a task chain —
	// a ready task plus its sole-dependent successors — to one worker in
	// a single dispatch frame: Task is the chain's first link, Arg the
	// number of tasks in the chain, Worker the executing lane.
	EvChain

	numKinds = iota
)

var kindNames = [numKinds]string{
	"submit", "edge", "ready", "start", "end", "skip", "steal",
	"idle-enter", "idle-exit", "taskwait-enter", "taskwait-exit",
	"rename", "writeback", "xfer", "xfer-hit", "chain",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// KindFromString parses the Kind serialization used in trace files; ok is
// false for unknown names.
func KindFromString(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// Event is one fixed-size trace record. Seq is the global merge order (a
// recorder-wide atomic counter, 1-based; 0 marks an empty ring slot). At is
// nanoseconds since the run's epoch (wall-clock for native runs, virtual
// time for simulated ones). Worker is the recording lane; -1 stands for
// "no lane" (events emitted from dependence-tracker context, which routes
// to the overflow ring). Task and Arg carry the kind-specific payload
// documented on each Kind; Label is set on EvSubmit only.
// Sess tags the
// session (executor domain) that submitted the task; it is set on EvSubmit
// only (0 = no session / pre-session trace) — per-session views recover the
// task→session map from submissions (see Trace.FilterSession).
type Event struct {
	Seq    uint64
	At     int64
	Task   uint64
	Arg    uint64
	Sess   uint64
	Worker int32
	Kind   Kind
	Label  string
}
