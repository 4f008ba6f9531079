package vm

// CostModel parameterizes the simulated machine. All values are calibrated to
// a circa-2012 multi-socket x86 server (the paper's evaluation platform
// class); EXPERIMENTS.md documents the calibration rationale. The defaults
// matter only in ratio: both programming models execute on the same machine,
// so Table-1-style comparisons depend on the relative magnitudes of task
// overhead, synchronization latency, and memory locality, not on absolutes.
type CostModel struct {
	// Thread and task management.
	ThreadSpawnIssue Time // serial cost the parent pays to issue a clone()
	ThreadSpawn      Time // latency until the new thread runs (overlappable)
	TaskSpawn        Time // creating a task object and inserting it in the graph
	DepEdge          Time // registering/resolving one dependence edge
	TaskDispatch     Time // popping a ready task and setting up execution
	TaskFinish       Time // completion bookkeeping (successor updates excluded)
	StealAttempt     Time // one work-stealing probe (successful or not)
	// QueueContention scales the task-queue operations (spawn, dispatch)
	// by (1 + QueueContention×(threads−1)): the central ready-queue lock
	// of the 2012-era runtime becomes a measurable serialization point at
	// high core counts.
	QueueContention float64

	// Locks and waiting.
	MutexFast     Time // uncontended lock+unlock pair
	MutexSlow     Time // additional latency for a contended acquire
	CondWake      Time // waking one blocked thread (futex wake + sched-in)
	BarrierWake   Time // per-waiter stagger when a blocking barrier releases
	PollInterval  Time // busy-wait loop period (poll latency upper bound)
	PollCheck     Time // cost of one poll-loop iteration
	ContextSwitch Time

	// Memory system. A task or thread touching `bytes` of data pays
	// bytes×NsPerByte scaled by a warmth factor that depends on where the
	// data was last written and how long ago.
	NsPerByte      float64 // cold/DRAM streaming cost per byte
	WarmSameCore   float64 // factor when reusing data recently produced on the same core
	WarmSameSocket float64 // factor when the producer ran on the same socket (shared LLC)
	CrossSocket    float64 // factor for cc-NUMA remote-socket access
	CacheDecay     Time    // how long produced data stays warm
	// BWContention models shared memory-bandwidth saturation: accesses
	// that miss the local cache (factor above WarmSameCore) additionally
	// scale by (1 + BWContention×(activeCores−1)). This is what makes
	// cache-warm scheduling increasingly valuable at high core counts on
	// the paper's machine — a warm hit dodges a saturated memory system.
	BWContention float64
}

// DefaultCostModel returns the calibrated machine parameters used throughout
// the evaluation.
func DefaultCostModel() CostModel {
	return CostModel{
		ThreadSpawnIssue: 2500 * Nanosecond,
		ThreadSpawn:      12 * Microsecond,
		TaskSpawn:        800 * Nanosecond,
		DepEdge:          120 * Nanosecond,
		TaskDispatch:     300 * Nanosecond,
		TaskFinish:       250 * Nanosecond,
		StealAttempt:     450 * Nanosecond,
		QueueContention:  0.035,

		MutexFast:     45 * Nanosecond,
		MutexSlow:     1500 * Nanosecond,
		CondWake:      4 * Microsecond,
		BarrierWake:   1000 * Nanosecond,
		PollInterval:  250 * Nanosecond,
		PollCheck:     25 * Nanosecond,
		ContextSwitch: 3 * Microsecond,

		// Effective per-byte cost for benchmark-style access patterns
		// (strided/indirect, coherence-visible) on a 2012 4-socket part:
		// ≈2 GB/s per core, far below peak streaming bandwidth. This is
		// what makes producer→consumer cache warmth measurable, as it was
		// on the paper's machine.
		NsPerByte:      0.5,
		WarmSameCore:   0.30,
		WarmSameSocket: 0.65,
		CrossSocket:    1.40,
		CacheDecay:     2 * Millisecond,
		BWContention:   0.12,
	}
}

// datumState tracks where a datum was last produced, for the warmth model.
type datumState struct {
	core   int
	socket int
	at     Time
	valid  bool
}

// MemCost returns the virtual time needed for a thread on `core` to stream
// `bytes` of the datum identified by `key`, given where the datum was last
// written. When write is true the datum's home moves to this core.
// A nil key models untracked (always-cold) data.
func (vm *VM) MemCost(core int, key any, bytes int64, write bool) Time {
	if bytes <= 0 {
		return 0
	}
	cm := &vm.cfg.Cost
	factor := 1.0
	if key != nil {
		if ds, ok := vm.datums[key]; ok && ds.valid {
			fresh := vm.now-ds.at <= cm.CacheDecay
			switch {
			case fresh && ds.core == core:
				factor = cm.WarmSameCore
			case fresh && ds.socket == vm.cores[core].Socket:
				factor = cm.WarmSameSocket
			case ds.socket != vm.cores[core].Socket:
				factor = cm.CrossSocket
			}
		}
		if write {
			ds := vm.datums[key]
			if ds == nil {
				ds = &datumState{}
				vm.datums[key] = ds
			}
			ds.core = core
			ds.socket = vm.cores[core].Socket
			ds.at = vm.now
			ds.valid = true
		} else if ds, ok := vm.datums[key]; ok && ds.valid {
			// A read pulls a copy into this core's cache; subsequent
			// same-core reads are warm. Model by re-homing reads too
			// (MESI shared-line approximation) without changing time.
			ds.core = core
			ds.socket = vm.cores[core].Socket
			ds.at = vm.now
		}
	}
	// Anything that misses the local cache competes for shared memory
	// bandwidth with every other actively computing core.
	if factor > cm.WarmSameCore && cm.BWContention > 0 {
		if act := vm.activeCores(); act > 1 {
			factor *= 1 + cm.BWContention*float64(act-1)
		}
	}
	return Time(float64(bytes) * cm.NsPerByte * factor)
}

// activeCores counts cores whose current thread is actually computing
// (spin-waiters poll cached lines and do not pressure DRAM).
func (vm *VM) activeCores() int {
	n := 0
	for _, c := range vm.cores {
		if c.cur != nil && c.cur.parkedOn == nil {
			n++
		}
	}
	return n
}

// TouchCost is MemCost from thread context, using the thread's core.
func (t *Thread) TouchCost(key any, bytes int64, write bool) Time {
	return t.vm.MemCost(t.core.ID, key, bytes, write)
}
