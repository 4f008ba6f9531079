package ompss

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestNativeConcurrentSubmitStress hits the executor from many goroutines
// at once — the deployment shape of a server embedding the runtime: N
// goroutines share the master TC, each submitting dependent task chains
// with mixed In/Out/InOut accesses, interleaved with a shared accumulation
// under a Critical section, then all of them taskwait together. This
// exercises lane aliasing (several threads popping the master lane — the
// scheduler's TryLock spill path), submit-vs-finish release races, and the
// sharded dependence tracker under cross-goroutine key sharing.
//
// Invariants: every per-goroutine InOut chain observes strictly sequential
// updates (ordering), the critical total is exact (mutual exclusion +
// no lost tasks), and the graph drains to Submitted == Finished with no
// ready task stranded (no lost releases). Run under -race in CI.
func TestNativeConcurrentSubmitStress(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const (
				nGoroutines = 6
				chainLen    = 150
			)
			rt := New(Workers(workers))
			defer rt.Shutdown()

			shared := new(int64) // accumulator, updated under Critical
			config := new(int64) // read-only datum, In from everyone
			*config = 7
			chains := make([]*int64, nGoroutines)
			sums := make([]*int64, nGoroutines)
			for i := range chains {
				chains[i] = new(int64)
				sums[i] = new(int64)
			}
			var reads atomic.Int64

			var wg sync.WaitGroup
			for gi := 0; gi < nGoroutines; gi++ {
				wg.Add(1)
				go func(gi int) {
					defer wg.Done()
					c, sum := chains[gi], sums[gi]
					for k := 0; k < chainLen; k++ {
						k := k
						// InOut chain: strict order within the goroutine.
						rt.Task(func(*TC) {
							if *c != int64(k) {
								t.Errorf("goroutine %d chain saw %d at step %d", gi, *c, k)
							}
							*c++
						}, InOut(c), In(config))
						// Critical accumulation across goroutines.
						rt.Task(func(tc *TC) {
							tc.Critical("shared", func() { *shared += *config })
						}, In(config))
						// Independent read, Out to a private slot.
						rt.Task(func(*TC) {
							reads.Add(*config / 7)
						}, In(config))
					}
					// Out-then-In epilogue per goroutine.
					rt.Task(func(*TC) { *sum = *c }, In(c), Out(sum))
					rt.Taskwait() // concurrent taskwaiters share the master lane
				}(gi)
			}
			wg.Wait()
			rt.Taskwait()

			for gi := range chains {
				if *chains[gi] != chainLen {
					t.Fatalf("goroutine %d chain ended at %d, want %d", gi, *chains[gi], chainLen)
				}
				if *sums[gi] != chainLen {
					t.Fatalf("goroutine %d epilogue read %d, want %d", gi, *sums[gi], chainLen)
				}
			}
			if want := int64(nGoroutines * chainLen * 7); *shared != want {
				t.Fatalf("critical total %d, want %d", *shared, want)
			}
			if got, want := reads.Load(), int64(nGoroutines*chainLen); got != want {
				t.Fatalf("independent reads %d, want %d", got, want)
			}

			st := rt.Stats()
			total := uint64(nGoroutines * (3*chainLen + 1))
			if st.Graph.Submitted != total || st.Graph.Finished != total {
				t.Fatalf("graph imbalance: submitted=%d finished=%d want %d",
					st.Graph.Submitted, st.Graph.Finished, total)
			}
			if rdy := rt.lc.sched.Ready(); rdy != 0 {
				t.Fatalf("%d ready tasks stranded after drain", rdy)
			}
		})
	}
}

// TestNativeBlockingModeStress repeats a smaller mixed workload in Blocking
// wait mode, covering the idle-gate park/wake paths (workers sleeping on
// the gate while submitters race the wake sequence).
func TestNativeBlockingModeStress(t *testing.T) {
	const (
		nGoroutines = 4
		chainLen    = 100
	)
	rt := New(Workers(4), Wait(Blocking))
	defer rt.Shutdown()

	chains := make([]*int64, nGoroutines)
	for i := range chains {
		chains[i] = new(int64)
	}
	var wg sync.WaitGroup
	for gi := 0; gi < nGoroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			c := chains[gi]
			for k := 0; k < chainLen; k++ {
				k := k
				rt.Task(func(*TC) {
					if *c != int64(k) {
						t.Errorf("goroutine %d chain saw %d at step %d", gi, *c, k)
					}
					*c++
				}, InOut(c))
			}
			rt.Taskwait()
		}(gi)
	}
	wg.Wait()
	rt.Taskwait()
	for gi := range chains {
		if *chains[gi] != chainLen {
			t.Fatalf("goroutine %d chain ended at %d, want %d", gi, *chains[gi], chainLen)
		}
	}
	st := rt.Stats()
	if st.Graph.Submitted != st.Graph.Finished {
		t.Fatalf("graph imbalance: %+v", st.Graph)
	}
}
