package suite

import (
	"testing"

	"ompssgo/machine"
	"ompssgo/ompss"
)

// LoopInstance is the flat-loop surface of a benchmark: the same computation
// as RunOmpSs, but expressed as one TaskLoop over a flat iteration space so
// chunking is the runtime's decision rather than the benchmark's. It is the
// grain-ablation surface — RunOmpSsLoop with a static chunk sweeps the
// granularity axis, and chunk == ompss.Auto hands the choice to the runtime
// (n/(4·workers), or a pinned Tuning Grain). Results are bit-identical to
// RunSeq/RunOmpSs for every chunk.
type LoopInstance interface {
	Instance
	// LoopUnits returns the iteration-space size of the loop variant
	// (rows, buffers, ...).
	LoopUnits() int
	// RunOmpSsLoop runs the task-dataflow variant as a single TaskLoop of
	// LoopUnits iterations with the given chunk size.
	RunOmpSsLoop(rt ompss.API, chunk int) uint64
}

// autotuneBenches are the loop-surfaced suite benchmarks (LoopInstance) the
// grain ablation sweeps.
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

// TestAutotuneAblation is the acceptance gate for TaskLoop's Auto chunk
// (the n/(4·workers) heuristic): on every loop-surfaced suite app it must
// come within 30% of the best static chunk under the simulator, where
// makespans are virtual time and the verdict is the same on every host.
func TestAutotuneAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement-driven; skipped in -short")
	}
	const tol = 0.30

	t.Run("sim", func(t *testing.T) {
		mc := machine.Config{Cores: 4, Sockets: 2}
		for _, name := range autotuneBenches {
			ref, err := New(name, Small)
			if err != nil {
				t.Fatal(err)
			}
			li := ref.(LoopInstance)
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
			auto := makespan(ompss.Auto)
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
