package ompss_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"ompssgo/internal/dist"
	"ompssgo/internal/obs"
	"ompssgo/internal/obs/metrics"
	"ompssgo/ompss"
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
	if ompss.RaceDetector {
		// sync.Pool drops a quarter of what it is given under -race, so the
		// record pool refills at random and no count is exact.
		t.Skip("allocation counts are exact only without -race")
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
		// Clauses built in a spawn on a concrete *TC cost nothing; through
		// the API interface, only the escaping []Clause.
		"BenchmarkSubmitInline": BenchmarkSubmitInline,
		"BenchmarkSubmitAPI":    BenchmarkSubmitAPI,
		// A six-access task: its access list, preds and successor lists
		// outgrow their inline buffers, and the pooled record keeps them.
		"BenchmarkSubmitWide": BenchmarkSubmitWide,
		// The default run-ahead window binding on every spawn: nothing for
		// the throttle, nothing for the shared ready queue's reused ring.
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

// BenchmarkObsRecord measures one event emission into an attached
// recorder, ring wraparound included (capacity far below b.N).
func BenchmarkObsRecord(b *testing.B) {
	rec := obs.NewRecorder(obs.Capacity(1 << 12))
	var t int64
	rec.Attach(1, "bench", false, func() int64 { t++; return t })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Emit(0, obs.EvStart, uint64(i), 0)
	}
}

// BenchmarkMetricsCounterInc measures one counter increment.
func BenchmarkMetricsCounterInc(b *testing.B) {
	reg := metrics.NewRegistry()
	c := reg.Counter("bench_total", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if c.Value() != uint64(b.N) {
		b.Fatalf("count %d != %d", c.Value(), b.N)
	}
}

// BenchmarkMetricsHistogramObserve measures one latency observation,
// cycling across bucket indexes so the bit-length bucket map is exercised.
func BenchmarkMetricsHistogramObserve(b *testing.B) {
	reg := metrics.NewRegistry()
	h := reg.Histogram("bench_seconds", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(1000 << (i % 20)))
	}
	if h.Count() != uint64(b.N) {
		b.Fatalf("count %d != %d", h.Count(), b.N)
	}
}

// BenchmarkDistFrameRoundTrip measures one task-dispatch frame through the
// wire codec: encode a TaskMsg frame, decode it back. This is the
// coordinator's per-dispatch marshal cost; its alloc ceiling guards the
// path now that trace batches piggyback on the same frames.
func BenchmarkDistFrameRoundTrip(b *testing.B) {
	payload := make([]byte, 4096)
	f := &dist.Frame{Task: &dist.TaskMsg{
		ID:     7,
		Kernel: "bench.kernel",
		Args:   []byte{1, 2, 3, 4},
		NIn:    1,
		Reads:  []dist.WireRef{{Datum: 1, Ver: 2, Size: 4096, Bytes: payload}},
		Writes: []dist.WireOut{{Datum: 3, Ver: 1, Size: 4096, SeedFrom: -1}},
	}}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := dist.WriteFrame(&buf, f); err != nil {
			b.Fatal(err)
		}
		if _, err := dist.ReadFrame(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
