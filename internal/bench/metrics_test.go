package bench

import (
	"bytes"
	"testing"

	"ompssgo/internal/dist"
	"ompssgo/internal/obs/metrics"
)

// Metrics-plane overhead microbenchmarks. The live metrics plane attaches
// to a serving runtime, so its hot-path contract is the same as the
// recorder's: zero allocations per increment/observation, enforced through
// testdata/alloc_budget.json. BenchmarkDistFrameRoundTrip pins the wire
// dispatch path's per-frame allocation cost so trace piggybacking cannot
// silently inflate it.

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
