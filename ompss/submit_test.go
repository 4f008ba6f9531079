package ompss_test

import (
	"testing"

	"ompssgo/internal/obs"
	"ompssgo/ompss"
)

// The submit-path microbenchmarks compare the two ways of naming a datum in
// a dependence clause:
//
//   - AnyKey*: the raw-key sugar — an untyped key is interned (looked up in
//     the graph's key map under its intern lock) on every submission;
//     non-pointer keys are additionally boxed into an interface, which
//     allocates.
//   - Datum*: the registered-handle fast path — Register interned the key
//     once, so submission does neither, mirroring how the OmpSs compiler
//     resolves clause expressions at build time.
//
// Run with -benchmem (CI's bench-smoke job does): the Datum variants must
// allocate no more and run no slower per task than their AnyKey twins. A
// Task spawn allocates no Handle and takes its record from the pool, so a
// Datum row allocates nothing per task, and an AnyKey row only what
// interning its key costs.

const submitKeys = 64

// benchSubmit drives b.N empty tasks through a master-only native runtime
// (no concurrent workers, so the measurement isolates the submit path).
// setup receives the runtime and returns the per-task clause chooser; the
// graph is drained periodically so it stays bounded. Extra options extend
// the runtime configuration (the observed variant attaches a recorder). The
// run-ahead window is pinned to the drain period, so it never binds and the
// rows measure the wiring path: a task submitted behind an unfinished chain
// link. BenchmarkSubmitThrottled is the row with the default window.
func benchSubmit(b *testing.B, setup func(rt *ompss.Runtime) func(i int) ompss.Clause, opts ...ompss.Option) {
	opts = append([]ompss.Option{ompss.Workers(1), ompss.MaxInFlight(submitDrainEvery)}, opts...)
	rt := ompss.New(opts...)
	defer rt.Shutdown()
	clause := setup(rt)
	body := func(*ompss.TC) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Task(body, clause(i))
		if i%submitDrainEvery == submitDrainEvery-1 {
			rt.Taskwait()
		}
	}
	rt.Taskwait()
}

const submitDrainEvery = 4096

// datumPtrChains is the setup the DatumPtr rows share: submitKeys pointer-keyed
// InOut chains through registered handles and their pre-built clauses.
func datumPtrChains(rt *ompss.Runtime) func(i int) ompss.Clause {
	ds := make([]*ompss.Datum, submitKeys)
	for i := range ds {
		ds[i] = rt.Register(new(int64))
	}
	return func(i int) ompss.Clause { return ds[i%submitKeys].AsInOut() }
}

// BenchmarkSubmitAnyKeyPtr submits through raw pointer keys (the idiomatic
// OmpSs by-reference datum): hashed and map-looked-up per submission.
func BenchmarkSubmitAnyKeyPtr(b *testing.B) {
	benchSubmit(b, func(*ompss.Runtime) func(i int) ompss.Clause {
		keys := make([]*int64, submitKeys)
		for i := range keys {
			keys[i] = new(int64)
		}
		return func(i int) ompss.Clause { return ompss.InOut(keys[i%submitKeys]) }
	})
}

// BenchmarkSubmitDatumPtr submits the same pointer-keyed chains through
// registered handles, using the pre-built AsInOut clause (zero clause
// construction per task).
func BenchmarkSubmitDatumPtr(b *testing.B) {
	benchSubmit(b, datumPtrChains)
}

// BenchmarkSubmitThrottled submits the same chains under the default
// run-ahead window (64 tasks at Workers(1)): past the first 64 tasks every
// spawn finds the window full, so the master executes the oldest chain link
// first and the new task is ready at submission. It costs only the ready
// queue's node: a Task spawn has no Handle, its record is pooled, and the
// throttle itself allocates nothing.
func BenchmarkSubmitThrottled(b *testing.B) {
	benchSubmit(b, datumPtrChains, ompss.MaxInFlight(0)) // 0: back to the default window
}

// BenchmarkSubmitAnyKeyInt submits through plain int keys: every submission
// boxes the int into an interface (one allocation) before hashing it.
func BenchmarkSubmitAnyKeyInt(b *testing.B) {
	benchSubmit(b, func(*ompss.Runtime) func(i int) ompss.Clause {
		return func(i int) ompss.Clause { return ompss.InOut(1000 + i%submitKeys) }
	})
}

// BenchmarkSubmitDatumInt submits the same int-keyed chains through
// registered handles: no boxing, no hashing, no clause construction.
func BenchmarkSubmitDatumInt(b *testing.B) {
	benchSubmit(b, func(rt *ompss.Runtime) func(i int) ompss.Clause {
		ds := make([]*ompss.Datum, submitKeys)
		for i := range ds {
			ds[i] = rt.Register(1000 + i)
		}
		return func(i int) ompss.Clause { return ds[i%submitKeys].AsInOut() }
	})
}

// BenchmarkSubmitDatumPtrObserved is BenchmarkSubmitDatumPtr with a
// recorder attached: the full submit-path event set (submit, edge, ready,
// start, end) rides along on every task.
func BenchmarkSubmitDatumPtrObserved(b *testing.B) {
	benchSubmit(b, datumPtrChains, ompss.Observe(obs.NewRecorder()))
}

// BenchmarkNativeTaskwait measures the empty-graph taskwait fast path.
func BenchmarkNativeTaskwait(b *testing.B) {
	rt := ompss.New(ompss.Workers(2))
	defer rt.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Taskwait()
	}
}
