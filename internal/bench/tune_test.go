package bench

import (
	"testing"

	"ompssgo/internal/core"
	"ompssgo/internal/obs"
	"ompssgo/internal/suite"
	"ompssgo/internal/tune"
	"ompssgo/machine"
	"ompssgo/ompss"
)

// BenchmarkSubmitDatumPtrTuned is BenchmarkSubmitDatumPtr with the feedback
// controller live (grain and rename-cap loops armed): the control plane
// hangs its measurement off the task-finish path and its setpoints off
// atomics, so an armed controller must cost the submit path nothing — the
// budget file holds both benchmarks to the same ceiling.
func BenchmarkSubmitDatumPtrTuned(b *testing.B) {
	benchSubmit(b, datumPtrChains, ompss.WithTuning(ompss.Tuning{Grain: ompss.Auto, RenameCap: ompss.Auto}))
}

// BenchmarkTuneRecord measures the controller's per-completion feed —
// aggregator update plus the inline control tick every TickEvery-th call —
// which must stay at 0 allocs/op after the label's first sighting, like
// the obs record path it mirrors.
func BenchmarkTuneRecord(b *testing.B) {
	tn := &core.Tunables{}
	ctl := tune.New(tune.Config{
		Workers: 2, Grain: true, Backoff: true, RenameCap: true,
		SchedStats: func() core.SchedStats { return core.SchedStats{} },
		GraphStats: func() core.GraphStats { return core.GraphStats{} },
	}, tn, obs.NewAggregator(0))
	ctl.TaskDone("bench", 1000, 4, false, false) // intern the label
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.TaskDone("bench", int64(1000+i%512), 4, i%7 == 0, i%13 == 0)
	}
}

// autotuneBenches are the loop-surfaced suite benchmarks (suite.LoopInstance)
// the grain ablation sweeps.
var autotuneBenches = []string{"rotate", "c-ray", "md5"}

// staticChunkLadder is the swept grain axis: from fully fine (chunk 1,
// maximal scheduling freedom and maximal per-task overhead) through the
// balanced middle to fully coarse (one chunk per worker, no balancing
// slack), deduplicated and clamped to the space.
func staticChunkLadder(units, workers int) []int {
	cands := []int{1, units / (8 * workers), units / (4 * workers), units / (2 * workers), units / workers}
	var out []int
	seen := map[int]bool{}
	for _, c := range cands {
		if c < 1 {
			c = 1
		}
		if c > units {
			c = units
		}
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// TestAutotuneAblation is the acceptance gate for the grain controller:
// on every loop-surfaced suite app, auto chunking must come within 30% of
// the best static chunk under the simulator, where makespans are virtual
// time and the verdict is the same on every host.
func TestAutotuneAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement-driven; skipped in -short")
	}
	const tol = 0.30

	t.Run("sim", func(t *testing.T) {
		mc := machine.Config{Cores: 4, Sockets: 2}
		for _, name := range autotuneBenches {
			ref, err := suite.New(name, suite.Small)
			if err != nil {
				t.Fatal(err)
			}
			li := ref.(suite.LoopInstance)
			want := ref.RunSeq()
			units := li.LoopUnits()

			makespan := func(chunk int, opts ...ompss.Option) int64 {
				var got uint64
				st, err := ompss.RunSim(mc, func(rt *ompss.Runtime) {
					got = li.RunOmpSsLoop(rt, chunk)
				}, opts...)
				if err != nil {
					t.Fatalf("%s chunk=%d: %v", name, chunk, err)
				}
				if got != want {
					t.Fatalf("%s chunk=%d: checksum %#x, sequential reference %#x", name, chunk, got, want)
				}
				return int64(st.Makespan)
			}

			var bestStatic int64
			bestChunk := 0
			for _, chunk := range staticChunkLadder(units, mc.Cores) {
				ns := makespan(chunk)
				if bestStatic == 0 || ns < bestStatic {
					bestStatic, bestChunk = ns, chunk
				}
			}
			// The controller needs measurements to leave its heuristic:
			// under the simulator one cold run is the whole story, so the
			// single-pass auto leg is judged against the same ±30% bar —
			// the heuristic seed must already be competitive.
			auto := makespan(ompss.Auto, ompss.WithTuning(ompss.Tuning{Grain: ompss.Auto}))
			factor := float64(bestStatic) / float64(auto)
			if factor < 1-tol {
				t.Errorf("%s (sim): auto makespan %d vs best static (chunk %d) %d: factor %.2f below %.2f",
					name, auto, bestChunk, bestStatic, factor, 1-tol)
			} else {
				t.Logf("%s (sim): auto=%d static(best chunk=%d)=%d factor=%.2f",
					name, auto, bestChunk, bestStatic, factor)
			}
		}
	})
}
