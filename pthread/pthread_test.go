package pthread

import (
	"sync/atomic"
	"testing"
	"time"

	"ompssgo/machine"
)

func TestNativeParallelSPMD(t *testing.T) {
	api := Native(4)
	var sum int64
	ids := make([]bool, 4)
	api.Main().Parallel(func(th *Thread) {
		atomic.AddInt64(&sum, 1)
		ids[th.ID()] = true
	})
	if sum != 4 {
		t.Fatalf("ran %d threads, want 4", sum)
	}
	for i, ok := range ids {
		if !ok {
			t.Fatalf("thread id %d missing", i)
		}
	}
}

func TestNativeMutexCounter(t *testing.T) {
	api := Native(8)
	m := api.NewMutex()
	counter := 0
	api.Main().Parallel(func(th *Thread) {
		for i := 0; i < 500; i++ {
			th.Lock(m)
			counter++
			th.Unlock(m)
		}
	})
	if counter != 4000 {
		t.Fatalf("counter = %d, want 4000", counter)
	}
}

func TestNativeBarrierPhases(t *testing.T) {
	const n, rounds = 4, 10
	api := Native(n)
	b := api.NewBarrier(n)
	var phase [n]int64
	api.Main().Parallel(func(th *Thread) {
		for r := 0; r < rounds; r++ {
			atomic.StoreInt64(&phase[th.ID()], int64(r))
			th.Barrier(b)
			for j := 0; j < n; j++ {
				if p := atomic.LoadInt64(&phase[j]); p < int64(r) {
					t.Errorf("thread %d saw stale phase %d in round %d", th.ID(), p, r)
				}
			}
			th.Barrier(b)
		}
	})
}

func TestNativeSpinVarWavefront(t *testing.T) {
	api := Native(2)
	progress := api.NewSpinVar()
	data := make([]int, 20)
	out := make([]int, 20)
	main := api.Main()
	consumer := main.Spawn("c", func(th *Thread) {
		for i := range out {
			th.WaitGE(progress, int64(i+1))
			out[i] = data[i] * 2
		}
	})
	for i := range data {
		data[i] = i + 1
		main.Add(progress, 1)
	}
	main.Join(consumer)
	for i, v := range out {
		if v != (i+1)*2 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestSimParallelComputesRealResults(t *testing.T) {
	res := make([]int, 8)
	st, err := RunSim(machine.Paper(8), 8, func(main *Thread) {
		main.Parallel(func(th *Thread) {
			th.Compute(100 * time.Microsecond)
			res[th.ID()] = th.ID() * 3
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res {
		if v != i*3 {
			t.Fatalf("res[%d] = %d", i, v)
		}
	}
	if st.Makespan < 100*time.Microsecond {
		t.Fatalf("makespan %v below thread work", st.Makespan)
	}
}

func TestSimParallelSpeedup(t *testing.T) {
	measure := func(p int) time.Duration {
		st, err := RunSim(machine.Paper(p), p, func(main *Thread) {
			main.Parallel(func(th *Thread) {
				// Each thread does an equal share of 8ms total work.
				th.Compute(time.Duration(8000/p) * time.Microsecond)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Makespan
	}
	t1, t8 := measure(1), measure(8)
	sp := float64(t1) / float64(t8)
	if sp < 5 || sp > 8.5 {
		t.Fatalf("8-thread speedup = %.2f (t1=%v, t8=%v)", sp, t1, t8)
	}
}

func TestSimDeterministicReplay(t *testing.T) {
	run := func() machine.Stats {
		st, err := RunSim(machine.Paper(8), 8, func(main *Thread) {
			api := main.API()
			m := api.NewMutex()
			b := api.NewBarrier(8)
			shared := 0
			main.Parallel(func(th *Thread) {
				th.Compute(time.Duration(th.ID()+1) * 50 * time.Microsecond)
				th.Barrier(b)
				th.Lock(m)
				shared++
				th.Unlock(m)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.Events != b.Events {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
}

func TestSimPipelineSpawnJoin(t *testing.T) {
	sum := 0
	_, err := RunSim(machine.Paper(4), 4, func(main *Thread) {
		api := main.API()
		q := api.NewSpinVar()
		buf := make([]int, 16)
		prod := main.Spawn("prod", func(th *Thread) {
			for i := range buf {
				th.Compute(30 * time.Microsecond)
				buf[i] = i
				th.Add(q, 1)
			}
		})
		cons := main.Spawn("cons", func(th *Thread) {
			for i := range buf {
				th.WaitGE(q, int64(i+1))
				th.Compute(20 * time.Microsecond)
				sum += buf[i]
			}
		})
		main.Join(prod)
		main.Join(cons)
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 120 {
		t.Fatalf("pipeline sum = %d, want 120", sum)
	}
}

func TestSimOversubscriptionStillCompletes(t *testing.T) {
	// 8 threads on 2 cores: the quantum scheduler must interleave them.
	st, err := RunSim(machine.Paper(2), 8, func(main *Thread) {
		api := main.API()
		b := api.NewBarrier(8)
		main.Parallel(func(th *Thread) {
			th.Compute(500 * time.Microsecond)
			th.Barrier(b)
			th.Compute(200 * time.Microsecond)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// 8×700µs of work on 2 cores ≥ 2.8ms.
	if st.Makespan < 2800*time.Microsecond {
		t.Fatalf("oversubscribed makespan %v below work bound", st.Makespan)
	}
}

func TestNativeVsSimSameResults(t *testing.T) {
	program := func(main *Thread) []int {
		api := main.API()
		n := api.Threads()
		b := api.NewBarrier(n)
		data := make([]int, n)
		main.Parallel(func(th *Thread) {
			data[th.ID()] = th.ID() + 1
			th.Barrier(b)
			// Neighbour sum after the barrier (needs the barrier for
			// correctness).
			right := data[(th.ID()+1)%n]
			th.Barrier(b)
			data[th.ID()] += right
		})
		return data
	}
	var simRes []int
	if _, err := RunSim(machine.Paper(4), 4, func(m *Thread) { simRes = program(m) }); err != nil {
		t.Fatal(err)
	}
	nativeRes := program(Native(4).Main())
	for i := range simRes {
		if simRes[i] != nativeRes[i] {
			t.Fatalf("sim %v != native %v", simRes, nativeRes)
		}
	}
}

// BenchmarkNativePthreadBarrier measures the native blocking barrier
// round-trip with 4 threads.
func BenchmarkNativePthreadBarrier(b *testing.B) {
	api := Native(4)
	bar := api.NewBarrier(4)
	b.ResetTimer()
	api.Main().Parallel(func(t *Thread) {
		for i := 0; i < b.N; i++ {
			t.Barrier(bar)
		}
	})
}
