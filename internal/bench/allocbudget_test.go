package bench

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"ompssgo/internal/vm"
)

// TestSubmitAllocBudget is the allocation regression guard for the submit
// hot path: it runs each submit microbenchmark through testing.Benchmark
// for a fixed allocBudgetRuns iterations and fails when allocs/op exceeds the checked-in ceiling in
// testdata/alloc_budget.json. Allocation counts on this path are
// deterministic (no GOMAXPROCS or timing dependence at Workers(1)), so the
// ceilings are exact: a one-allocation regression fails loudly in CI's
// bench-smoke job instead of drowning in a benchmark log. The check is
// two-sided — a count more than 1 below its ceiling fails too, naming the
// number to commit — so an optimization has to ratchet the file down with
// it and the ceilings never go stale. The file's bytes_per_op object adds
// one-sided B/op ceilings for the spawn rows, where the record pool keeps a
// task's bytes, not its allocation count, down.
func TestSubmitAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-driven; skipped in -short")
	}
	bt := flag.Lookup("test.benchtime")
	prev := bt.Value.String()
	if err := bt.Value.Set(allocBudgetRuns); err != nil {
		t.Fatal(err)
	}
	defer bt.Value.Set(prev)
	raw, err := os.ReadFile("testdata/alloc_budget.json")
	if err != nil {
		t.Fatalf("read alloc budget: %v", err)
	}
	var file map[string]any
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("parse alloc budget: %v", err)
	}
	entries, bytesMax := map[string]int64{}, map[string]int64{}
	for name, v := range file {
		if name == "_comment" {
			continue
		}
		if name == "bytes_per_op" {
			for row, b := range v.(map[string]any) {
				if f, ok := b.(float64); ok {
					bytesMax[row] = int64(f)
				}
			}
			continue
		}
		f, ok := v.(float64)
		if !ok {
			t.Fatalf("budget %s: want a number, got %T", name, v)
		}
		entries[name] = int64(f)
	}
	benchmarks := map[string]func(*testing.B){
		"BenchmarkSubmitAnyKeyPtr": BenchmarkSubmitAnyKeyPtr,
		"BenchmarkSubmitDatumPtr":  BenchmarkSubmitDatumPtr,
		"BenchmarkSubmitAnyKeyInt": BenchmarkSubmitAnyKeyInt,
		"BenchmarkSubmitDatumInt":  BenchmarkSubmitDatumInt,
		// The default run-ahead window binding on every spawn: the
		// ready-queue node, nothing for the throttle.
		"BenchmarkSubmitThrottled": BenchmarkSubmitThrottled,
		// Observability ceilings: the raw record path must stay at 0
		// allocs/op, and a recorder-attached submit must cost no more
		// allocations than a detached one (same ceiling as
		// BenchmarkSubmitDatumPtr).
		"BenchmarkObsRecord":              BenchmarkObsRecord,
		"BenchmarkSubmitDatumPtrObserved": BenchmarkSubmitDatumPtrObserved,
		// Metrics-plane ceilings: every live increment/observation must
		// stay allocation-free, so scraping a loaded server never perturbs
		// it. The dist frame round-trip is pinned at its current cost — the
		// header buffer, the segment list, the frame's one read buffer and
		// the decoded structs, never a copy of the payload — so neither
		// trace piggybacking nor a reflective codec can silently inflate
		// the dispatch path.
		"BenchmarkMetricsCounterInc":       BenchmarkMetricsCounterInc,
		"BenchmarkMetricsHistogramObserve": BenchmarkMetricsHistogramObserve,
		"BenchmarkDistFrameRoundTrip":      BenchmarkDistFrameRoundTrip,
	}
	for name, fn := range benchmarks {
		budget, ok := entries[name]
		if !ok {
			t.Errorf("%s: no budget in testdata/alloc_budget.json — add one", name)
			continue
		}
		res := testing.Benchmark(fn)
		if max, ok := bytesMax[name]; ok && res.AllocedBytesPerOp() > max {
			t.Errorf("%s: %d B/op exceeds its ceiling %d (testdata/alloc_budget.json): are task records still pooled?",
				name, res.AllocedBytesPerOp(), max)
		}
		switch got := res.AllocsPerOp(); {
		case got > budget:
			t.Errorf("%s: %d allocs/op exceeds budget %d (testdata/alloc_budget.json) — "+
				"either fix the regression or justify raising the budget",
				name, got, budget)
		case got < budget-1:
			t.Errorf("%s: %d allocs/op is well under its stale budget %d — "+
				"lower it to %d in testdata/alloc_budget.json", name, got, budget, got)
		default:
			t.Logf("%s: %d allocs/op (budget %d), %d B/op", name, got, budget, res.AllocedBytesPerOp())
		}
	}
	// Every budgeted benchmark must still exist, so a rename cannot
	// silently drop coverage.
	for name := range entries {
		if _, ok := benchmarks[name]; !ok {
			t.Errorf("budget entry %s has no matching benchmark — remove or rename it", name)
		}
	}
	for name := range bytesMax {
		if _, ok := entries[name]; !ok {
			t.Errorf("bytes_per_op entry %s has no allocation budget — remove or rename it", name)
		}
	}
}

// allocBudgetRuns is the iteration count each budget row runs for, whatever
// -test.benchtime says. It must let the record pool reach its steady state:
// at 20,000 iterations BenchmarkSubmitDatumPtr still reads ~110 B/op, over
// its 32 B/op ceiling, while the pool fills; at 200,000 it reads ~11.
const allocBudgetRuns = "200000x"

// TestVMEventAllocs pins the simulator's per-event host cost where it can be
// exact: the three commonest dispatches allocate nothing. Each row is measured
// with testing.AllocsPerRun from inside a virtual thread, so machine set-up
// and the first growth of the event heap stay outside the count.
func TestVMEventAllocs(t *testing.T) {
	const runs = 200
	rows := []struct {
		name    string
		op      func(th *vm.Thread, ws *vm.WaitSet)
		settled uint64 // wake-ups the event loop must have settled by itself
	}{
		// The thread's own resumption is the next event: no goroutine switch.
		{"Compute on an uncontended core", func(th *vm.Thread, _ *vm.WaitSet) { th.Compute(vm.Microsecond) }, 0},
		{"Charge+Flush", func(th *vm.Thread, _ *vm.WaitSet) { th.Charge(25 * vm.Nanosecond); th.Flush() }, 0},
		// The spinner on core 1 is woken, polls, finds its predicate false and
		// re-parks — all on the event loop, inside the waker's Compute.
		{"futile spinner wake", func(th *vm.Thread, ws *vm.WaitSet) { ws.WakeAll(th.VM()); th.Compute(vm.Microsecond) }, runs},
	}
	for _, row := range rows {
		v := vm.New(vm.Config{Cores: 2})
		var ws vm.WaitSet
		stop := false
		allocs := -1.0
		v.Go("spinner", 1, func(th *vm.Thread) { th.SpinUntil(&ws, func() bool { return stop }) })
		v.Go("driver", 0, func(th *vm.Thread) {
			th.Compute(vm.Millisecond) // the spinner has parked
			allocs = testing.AllocsPerRun(runs, func() { row.op(th, &ws) })
			stop = true
			ws.WakeAll(th.VM())
		})
		st, err := v.Run()
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocs per event, want 0", row.name, allocs)
		}
		if st.Settled < row.settled {
			t.Errorf("%s: the loop settled %d wake-ups, want ≥ %d", row.name, st.Settled, row.settled)
		}
	}
}
