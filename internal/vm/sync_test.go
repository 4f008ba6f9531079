package vm

import (
	"testing"
)

func TestMutexMutualExclusionOrdering(t *testing.T) {
	v := newVM(4)
	var m Mutex
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		v.Go("w", i, func(th *Thread) {
			th.Compute(Time(i) * 10 * Microsecond) // arrive in index order
			th.Lock(&m)
			order = append(order, i)
			th.Compute(100 * Microsecond) // hold long enough to force contention
			th.Unlock(&m)
		})
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("FIFO handoff violated: %v", order)
		}
	}
}

func TestMutexContentionCostsMore(t *testing.T) {
	uncontended := func() Time {
		v := newVM(2)
		var m Mutex
		v.Go("a", 0, func(th *Thread) {
			for i := 0; i < 100; i++ {
				th.Lock(&m)
				th.Compute(Microsecond)
				th.Unlock(&m)
			}
		})
		st, _ := v.Run()
		return st.Time
	}()
	contended := func() Time {
		v := newVM(2)
		var m Mutex
		for i := 0; i < 2; i++ {
			v.Go("w", i, func(th *Thread) {
				for j := 0; j < 50; j++ {
					th.Lock(&m)
					th.Compute(Microsecond)
					th.Unlock(&m)
				}
			})
		}
		st, _ := v.Run()
		return st.Time
	}()
	// Same total critical work (100µs), but the contended version pays
	// wake latencies on nearly every handoff.
	if contended <= uncontended {
		t.Fatalf("contended %v should exceed uncontended %v", contended, uncontended)
	}
}

func TestUnlockByNonOwnerPanics(t *testing.T) {
	v := newVM(1)
	var m Mutex
	panicked := false
	v.Go("bad", 0, func(th *Thread) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		th.Unlock(&m)
	})
	v.Run() //nolint:errcheck // thread panics internally; recover handles it
	if !panicked {
		t.Fatal("Unlock by non-owner should panic")
	}
}

func TestCondSignalWakesOne(t *testing.T) {
	v := newVM(4)
	var m Mutex
	var c Cond
	ready := 0
	woken := 0
	for i := 0; i < 3; i++ {
		v.Go("waiter", i, func(th *Thread) {
			th.Lock(&m)
			ready++
			th.CondWait(&c, &m)
			woken++
			th.Unlock(&m)
		})
	}
	v.Go("signaler", 3, func(th *Thread) {
		// Wait until all three block, then signal one at a time.
		for {
			th.Compute(100 * Microsecond)
			th.Lock(&m)
			r := ready
			th.Unlock(&m)
			if r == 3 {
				break
			}
		}
		for i := 0; i < 3; i++ {
			th.Lock(&m)
			th.condSignal(&c)
			th.Unlock(&m)
			th.Compute(100 * Microsecond)
		}
	})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	v := newVM(8)
	var m Mutex
	var c Cond
	blocked := 0
	woken := 0
	for i := 0; i < 7; i++ {
		v.Go("waiter", i, func(th *Thread) {
			th.Lock(&m)
			blocked++
			th.CondWait(&c, &m)
			woken++
			th.Unlock(&m)
		})
	}
	v.Go("b", 7, func(th *Thread) {
		for {
			th.Compute(50 * Microsecond)
			th.Lock(&m)
			n := blocked
			th.Unlock(&m)
			if n == 7 {
				break
			}
		}
		th.Lock(&m)
		th.CondBroadcast(&c)
		th.Unlock(&m)
	})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 7 {
		t.Fatalf("woken = %d, want 7", woken)
	}
}

func TestBlockingBarrierRounds(t *testing.T) {
	const n = 8
	v := newVM(n)
	var b Barrier
	b.N = n
	phase := make([]int, n)
	lastCount := 0
	for i := 0; i < n; i++ {
		i := i
		v.Go("w", i, func(th *Thread) {
			for round := 0; round < 5; round++ {
				th.Compute(Time(i+1) * 20 * Microsecond)
				if th.BarrierWait(&b) {
					lastCount++
				}
				phase[i] = round + 1
				// Everyone must observe all peers at the same phase
				// boundary; a stale phase would mean the barrier leaked.
				for j := 0; j < n; j++ {
					if phase[j] < round {
						t.Errorf("thread %d saw stale phase[%d]=%d in round %d", i, j, phase[j], round)
					}
				}
			}
		})
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if lastCount != 5 {
		t.Fatalf("serial-thread returns = %d, want 5", lastCount)
	}
}

func TestSpinBarrierRounds(t *testing.T) {
	const n = 6
	v := newVM(n)
	var b SpinBarrier
	b.N = n
	sum := 0
	for i := 0; i < n; i++ {
		i := i
		v.Go("w", i, func(th *Thread) {
			for round := 0; round < 4; round++ {
				th.Compute(Time(i+1) * 10 * Microsecond)
				sum++
				th.SpinBarrierWait(&b)
			}
		})
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != n*4 {
		t.Fatalf("sum = %d, want %d", sum, n*4)
	}
}

func TestSpinBarrierFasterThanBlockingForShortPhases(t *testing.T) {
	// The rgbcmy mechanism: many short phases separated by barriers. The
	// polling barrier avoids per-waiter wake latency and should win.
	const n, rounds = 16, 50
	blocking := func() Time {
		v := New(Config{Cores: n, Sockets: 2})
		var b Barrier
		b.N = n
		for i := 0; i < n; i++ {
			v.Go("w", i, func(th *Thread) {
				for r := 0; r < rounds; r++ {
					th.Compute(20 * Microsecond)
					th.BarrierWait(&b)
				}
			})
		}
		st, err := v.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st.Time
	}()
	polling := func() Time {
		v := New(Config{Cores: n, Sockets: 2})
		var b SpinBarrier
		b.N = n
		for i := 0; i < n; i++ {
			v.Go("w", i, func(th *Thread) {
				for r := 0; r < rounds; r++ {
					th.Compute(20 * Microsecond)
					th.SpinBarrierWait(&b)
				}
			})
		}
		st, err := v.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st.Time
	}()
	if polling >= blocking {
		t.Fatalf("polling barrier (%v) should beat blocking barrier (%v) for short phases", polling, blocking)
	}
}

func TestSpinVarProducerConsumer(t *testing.T) {
	v := newVM(2)
	var progress SpinVar
	data := make([]int, 10)
	consumed := make([]int, 0, 10)
	v.Go("producer", 0, func(th *Thread) {
		for i := 0; i < 10; i++ {
			th.Compute(50 * Microsecond)
			data[i] = i * i
			th.SpinStore(&progress, int64(i+1))
		}
	})
	v.Go("consumer", 1, func(th *Thread) {
		for i := 0; i < 10; i++ {
			th.SpinWaitGE(&progress, int64(i+1))
			consumed = append(consumed, data[i])
			th.Compute(10 * Microsecond)
		}
	})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	for i, got := range consumed {
		if got != i*i {
			t.Fatalf("consumed[%d] = %d, want %d", i, got, i*i)
		}
	}
}

func TestSpinWaitSharedCoreProgress(t *testing.T) {
	// Spinner and producer share one core: the spinner must be timesliced
	// so the producer can make the awaited progress (no livelock). This is
	// the 1-core column of Table 1 for spin-synced benchmarks.
	v := newVM(1)
	var progress SpinVar
	done := false
	v.Go("spinner", 0, func(th *Thread) {
		th.SpinWaitGE(&progress, 5)
		done = true
	})
	v.Go("producer", 0, func(th *Thread) {
		for i := 1; i <= 5; i++ {
			th.Compute(2 * Millisecond)
			th.SpinStore(&progress, int64(i))
		}
	})
	st, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("spinner never observed progress")
	}
	if st.Time < 10*Millisecond {
		t.Fatalf("makespan %v too small for 10ms of producer work", st.Time)
	}
}

func TestSpinAddAndLoad(t *testing.T) {
	v := newVM(2)
	var sv SpinVar
	var got int64
	v.Go("a", 0, func(th *Thread) {
		th.SpinAdd(&sv, 3)
		th.SpinAdd(&sv, 4)
		got = th.SpinLoad(&sv)
	})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("SpinLoad = %d, want 7", got)
	}
}

func TestBlockWakePendingIsSaved(t *testing.T) {
	// A wake that races with the transition to blocked must not be lost.
	v := newVM(2)
	var target *Thread
	reached := false
	target = v.Go("sleeper", 0, func(th *Thread) {
		th.Compute(5 * Millisecond) // the waker fires mid-compute
		th.Block("test")            // must consume the saved wake
		reached = true
	})
	v.Go("waker", 1, func(th *Thread) {
		th.Compute(Millisecond)
		th.vm.WakeAt(target, th.vm.now)
	})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if !reached {
		t.Fatal("saved wake was lost")
	}
}
