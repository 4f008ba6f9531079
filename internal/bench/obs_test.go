package bench

import (
	"testing"

	"ompssgo/internal/obs"
	"ompssgo/ompss"
)

// Observability overhead microbenchmarks. Two contracts are enforced
// through testdata/alloc_budget.json:
//
//   - BenchmarkObsRecord: the raw record path is 0 allocs/op steady-state
//     (rings preallocated at Attach, events fixed-size, wraparound
//     included).
//   - BenchmarkSubmitDatumPtrObserved: attaching a recorder adds ZERO
//     allocations to the submit hot path — its ceiling equals
//     BenchmarkSubmitDatumPtr's.
//
// The recorder's time cost is the benchmark's obs.trace_overhead_pct
// (benchmark/, every workload, traced pass vs untraced pass).

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

// BenchmarkDrainSparse is the distributed worker's per-task drain: four
// events in a default-capacity ring (two lanes, as a worker attaches). The
// cost must follow the events recorded, not the 32,768 slots allocated.
func BenchmarkDrainSparse(b *testing.B) {
	rec := obs.NewRecorder()
	var t int64
	rec.Attach(1, "bench", false, func() int64 { t++; return t })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 4; j++ {
			rec.Emit(0, obs.EvStart, uint64(i), 0)
		}
		if evs, _ := rec.Drain(); len(evs) != 4 {
			b.Fatalf("drained %d events, want 4", len(evs))
		}
	}
}

// BenchmarkSubmitDatumPtrObserved is BenchmarkSubmitDatumPtr with a
// recorder attached: the full submit-path event set (submit, edge, ready,
// start, end) rides along on every task.
func BenchmarkSubmitDatumPtrObserved(b *testing.B) {
	benchSubmit(b, datumPtrChains, ompss.Observe(obs.NewRecorder()))
}
