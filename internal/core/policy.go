package core

// Policy is the scheduling-policy surface shared by the native executor and
// the simulator: both construct their Sched from one of these, so a policy
// ablation (paper §4) and a production run exercise literally the same
// placement and victim-selection code.
//
// The one knob maps onto the mechanism the paper's §4 analysis credits:
// locality. A successor released by a finishing task is pushed to the
// bottom of the finisher's own deque, so producer→consumer chains run
// back-to-back on one core while the produced data is cache-resident (the
// ray-rot effect). Off, released tasks go to the shared ready queue.
//
// Victim selection is not a knob: an idle worker steals from a flat,
// randomly rotated ring of victims.
type Policy struct {
	Locality bool
}

// DefaultPolicy matches the paper's OmpSs runtime: locality scheduling on.
func DefaultPolicy() Policy { return Policy{Locality: true} }

// Victim returns the lane of the i-th steal probe for `worker` (or -1 once
// the order is exhausted): the ring of lanes rotated by rnd, so concurrent
// thieves spread, skipping the worker's own lane. Pure arithmetic — the
// steal hot path iterates i without materializing the order, so Pop stays
// allocation-free at any worker count. The caller supplies rnd from its
// per-lane RNG and must hold it constant across one probe sweep.
func (p Policy) Victim(i, worker, workers int, rnd uint64) int {
	inRange := worker >= 0 && worker < workers
	nVictims := workers - 1
	if !inRange {
		// Out-of-range callers (the overflow stats lane, foreign
		// goroutines) have no own lane: every worker is a victim.
		nVictims = workers
	}
	if workers < 1 || i < 0 || i >= nVictims {
		return -1
	}
	// The i-th element of the sequence (start+k)%workers with worker's own
	// slot removed.
	start := int(rnd % uint64(workers))
	self := (worker - start + workers) % workers
	k := i
	if inRange && i >= self {
		k = i + 1
	}
	return (start + k) % workers
}
