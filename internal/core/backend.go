package core

// Backend is the execution-domain seam: the contract every executor that
// drives the shared dependence tracker satisfies. The engine (this package)
// owns dependence wiring, version chains, domains, and statistics; a
// backend owns dispatch — where and how a ready task's body actually runs.
//
// Three domains implement it today:
//
//   - the native goroutine executor (package ompss), which runs bodies on
//     work-stealing worker goroutines in this address space;
//   - the discrete-event simulator (package ompss), which runs the same
//     bodies under virtual time on a modeled cc-NUMA machine;
//   - the multi-process distributed coordinator (internal/dist), which
//     ships serialized datum versions to worker processes over local
//     transport and executes by registered kernel name.
//
// All three share one invariant: dependence decisions (edges, renames,
// skips, writebacks) are made by the Graph, never by the backend, so a
// program observes the same dataflow semantics no matter which domain
// executes it. The interface is deliberately the engine-facing slice of a
// backend — submission/wait surfaces differ per domain (closures natively,
// kernel names in dist) and stay on the concrete types.
type Backend interface {
	// DomainName identifies the execution domain ("native", "sim", "dist")
	// for traces and reports.
	DomainName() string
	// Deps returns the dependence tracker the backend drives. All version
	// chains, renaming decisions, and failure propagation live there.
	Deps() *Graph
	// GraphStats snapshots the tracker's dependence activity.
	GraphStats() GraphStats
}

// SoleDependents returns the successors of t whose only unfinished
// predecessor is t itself, skipping any that already carry an upstream
// failure. Call it while t is still unfinished: t then holds exactly one
// count in each successor's predecessor counter until Finish, and
// submission wiring only ever inflates the counter (the wiring guard),
// so a successor observed at NPred()==1 is fully wired with t as its
// sole gate — finishing t is all that stands between it and readiness.
//
// This is the chain-eligibility query of the distributed backend: a
// sole dependent can be speculatively dispatched behind t to the same
// worker (a task chain) without any scheduling decision left to make.
// The engine only answers the structural question; what to do with the
// answer stays in the backend.
func (g *Graph) SoleDependents(t *Task) []*Task {
	var out []*Task
	for _, s := range t.Succs() {
		if s.NPred() == 1 && s.Upstream() == nil {
			out = append(out, s)
		}
	}
	return out
}

// ShardEntries reports the live dependence records across all shards.
// Session arenas release their records at Close, so a steady-state server's
// count returns to the pre-churn baseline; the session-churn soak watches
// exactly this number for arena leaks.
func (g *Graph) ShardEntries() int {
	n := 0
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		n += len(sh.datums)
		sh.mu.Unlock()
	}
	return n
}
