package distkern

import (
	"os"
	"testing"

	"ompssgo/internal/dist"
	"ompssgo/internal/suite/rgbcmy"
)

func TestMain(m *testing.M) {
	dist.MaybeWorker()
	os.Exit(m.Run())
}

// TestDistMatchesSequential is the acceptance proof: every adapted suite
// workload, run across two worker processes, produces a checksum
// identical to the in-process sequential reference.
func TestDistMatchesSequential(t *testing.T) {
	for _, w := range Small() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			var got uint64
			stats, err := dist.Run(2, func(rt *dist.RT) error {
				var err error
				got, err = w.Run(rt)
				return err
			})
			if err != nil {
				t.Fatalf("RunDist: %v", err)
			}
			if want := w.Seq(); got != want {
				t.Fatalf("checksum %#x, sequential reference %#x", got, want)
			}
			if stats.Tasks == 0 || stats.BytesFromWorkers == 0 {
				t.Fatalf("implausible stats: %+v", stats)
			}
			t.Logf("%s: %d tasks, %d B out, %d B back, %d transfers avoided (%d B)",
				w.Name, stats.Tasks, stats.BytesToWorkers, stats.BytesFromWorkers,
				stats.TransfersAvoided, stats.BytesAvoided)
		})
	}
}

// TestRGBCMYCacheReuse: the source image must migrate to each worker once
// and stay cached across all iterations — the distributed analogue of the
// paper's observation that rgbcmy is dominated by inter-iteration
// overheads, not recomputation.
func TestRGBCMYCacheReuse(t *testing.T) {
	stats, err := dist.Run(2, func(rt *dist.RT) error {
		_, err := RunRGBCMY(rt, rgbcmy.Small())
		return err
	})
	if err != nil {
		t.Fatalf("RunDist: %v", err)
	}
	// Every task after the first on each worker reads the source from its
	// version cache: at most 2 source transfers (one per worker) may miss.
	if stats.TransfersAvoided == 0 {
		t.Fatalf("no cache reuse across iterations: %+v", stats)
	}
	if stats.BytesAvoided <= stats.BytesToWorkers {
		t.Logf("note: avoided %d B vs shipped %d B", stats.BytesAvoided, stats.BytesToWorkers)
	}
}
