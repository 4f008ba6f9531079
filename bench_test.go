// Repository-level benchmarks: one testing.B benchmark per evaluation
// artifact of the paper.
//
//   - BenchmarkTable1/<bench>/<P>cores — regenerates one cell of Table 1 on
//     the simulated machine (reduced workloads; the full-scale table comes
//     from `go run ./cmd/ompss-bench -table1`). Reported metrics:
//     speedup-factor (Pthreads time / OmpSs time), pthreads-ms, ompss-ms.
//   - BenchmarkBarrierMechanism — the §4 rgbcmy polling-vs-blocking story.
//   - BenchmarkLocalityMechanism — the §4 ray-rot locality story.
//   - BenchmarkGranularityMechanism — the §4 h264dec granularity story.
//   - BenchmarkOccupancy — the §5 polling-occupancy observation.
//   - BenchmarkNative* — native (goroutine) runtime primitive costs.
package ompssgo_test

import (
	"fmt"
	"testing"
	"time"

	"ompssgo/internal/bench"
	"ompssgo/internal/suite"
	sh264dec "ompssgo/internal/suite/h264dec"
	srayrot "ompssgo/internal/suite/rayrot"
	srgbcmy "ompssgo/internal/suite/rgbcmy"
	"ompssgo/machine"
	"ompssgo/ompss"
	"ompssgo/pthread"
)

// BenchmarkTable1 regenerates every cell of the paper's Table 1 at reduced
// scale: 10 benchmarks × {8, 32} cores.
func BenchmarkTable1(b *testing.B) {
	for _, name := range suite.Names() {
		in, err := suite.New(name, suite.Small)
		if err != nil {
			b.Fatal(err)
		}
		for _, cores := range []int{8, 32} {
			b.Run(fmt.Sprintf("%s/%dcores", name, cores), func(b *testing.B) {
				var last bench.Cell
				for i := 0; i < b.N; i++ {
					cell, err := bench.MeasureCell(in, cores)
					if err != nil {
						b.Fatal(err)
					}
					last = cell
				}
				b.ReportMetric(last.Factor(), "speedup-factor")
				b.ReportMetric(float64(last.Pthreads)/1e6, "pthreads-ms")
				b.ReportMetric(float64(last.OmpSs)/1e6, "ompss-ms")
			})
		}
	}
}

// BenchmarkBarrierMechanism isolates the rgbcmy wait-mode effect at 16
// cores: the polling taskwait versus OmpSs forced into blocking waits.
func BenchmarkBarrierMechanism(b *testing.B) {
	in := srgbcmy.New(srgbcmy.Small())
	for _, c := range []struct {
		name string
		mode ompss.WaitMode
	}{{"polling", ompss.Polling}, {"blocking", ompss.Blocking}} {
		mode := c.mode
		b.Run(c.name, func(b *testing.B) {
			var span time.Duration
			for i := 0; i < b.N; i++ {
				st, err := ompss.RunSim(machine.Paper(16),
					func(rt *ompss.Runtime) { in.RunOmpSs(rt) }, ompss.Wait(mode))
				if err != nil {
					b.Fatal(err)
				}
				span = st.Makespan
			}
			b.ReportMetric(float64(span)/1e6, "virtual-ms")
		})
	}
}

// BenchmarkLocalityMechanism isolates the ray-rot locality-scheduling
// effect at 16 cores.
func BenchmarkLocalityMechanism(b *testing.B) {
	in := srayrot.New(srayrot.Small())
	for _, loc := range []bool{true, false} {
		setting := ompss.Off
		if loc {
			setting = ompss.On
		}
		b.Run(fmt.Sprintf("locality=%v", loc), func(b *testing.B) {
			var span time.Duration
			for i := 0; i < b.N; i++ {
				st, err := ompss.RunSim(machine.Paper(16),
					func(rt *ompss.Runtime) { in.RunOmpSs(rt) }, ompss.WithTuning(ompss.Tuning{Locality: setting}))
				if err != nil {
					b.Fatal(err)
				}
				span = st.Makespan
			}
			b.ReportMetric(float64(span)/1e6, "virtual-ms")
		})
	}
}

// BenchmarkGranularityMechanism sweeps h264dec reconstruction-task
// granularity at 32 cores — the paper's §4 grouping dilemma.
func BenchmarkGranularityMechanism(b *testing.B) {
	base := sh264dec.Small()
	for _, g := range []int{1, 2, 4} {
		wl := base
		wl.GroupRows = g
		in := sh264dec.New(wl)
		b.Run(fmt.Sprintf("grouprows=%d", g), func(b *testing.B) {
			var span time.Duration
			for i := 0; i < b.N; i++ {
				st, err := ompss.RunSim(machine.Paper(32),
					func(rt *ompss.Runtime) { in.RunOmpSs(rt) })
				if err != nil {
					b.Fatal(err)
				}
				span = st.Makespan
			}
			b.ReportMetric(float64(span)/1e6, "virtual-ms")
		})
	}
}

// BenchmarkOccupancy measures the §5 observation: polling keeps cores
// occupied beyond their useful utilization.
func BenchmarkOccupancy(b *testing.B) {
	in := srgbcmy.New(srgbcmy.Small())
	var st machine.Stats
	for i := 0; i < b.N; i++ {
		var err error
		st, err = ompss.RunSim(machine.Paper(16), func(rt *ompss.Runtime) { in.RunOmpSs(rt) })
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(st.Occupancy*100, "occupancy-%")
	b.ReportMetric(st.Utilization*100, "utilization-%")
}

// BenchmarkNativeTaskSpawn measures the native runtime's task creation and
// drain cost for independent tasks.
func BenchmarkNativeTaskSpawn(b *testing.B) {
	rt := ompss.New(ompss.Workers(2))
	defer rt.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Task(func(*ompss.TC) {})
		if i%1024 == 1023 {
			rt.Taskwait()
		}
	}
	rt.Taskwait()
}

// BenchmarkNativeDependentChain measures dependence tracking along an
// inout chain.
func BenchmarkNativeDependentChain(b *testing.B) {
	rt := ompss.New(ompss.Workers(2))
	defer rt.Shutdown()
	x := new(int)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Task(func(*ompss.TC) { *x++ }, ompss.InOut(x))
		if i%1024 == 1023 {
			rt.Taskwait()
		}
	}
	rt.Taskwait()
	if *x != b.N {
		b.Fatalf("chain lost updates: %d != %d", *x, b.N)
	}
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

// BenchmarkNativePthreadBarrier measures the native blocking barrier
// round-trip with 4 threads.
func BenchmarkNativePthreadBarrier(b *testing.B) {
	api := pthread.Native(4)
	bar := api.NewBarrier(4)
	b.ResetTimer()
	api.Main().Parallel(func(t *pthread.Thread) {
		for i := 0; i < b.N; i++ {
			t.Barrier(bar)
		}
	})
}

// BenchmarkSimThroughput measures the simulator's event-processing rate
// (real time per simulated task).
func BenchmarkSimThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := ompss.RunSim(machine.Paper(8), func(rt *ompss.Runtime) {
			x := new(int)
			for j := 0; j < 256; j++ {
				rt.Task(func(*ompss.TC) {}, ompss.InOut(x), ompss.Cost(time.Microsecond))
			}
			rt.Taskwait()
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
