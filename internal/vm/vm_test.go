package vm

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func newVM(cores int) *VM {
	return New(Config{Cores: cores, Sockets: (cores + 7) / 8})
}

func TestSingleThreadCompute(t *testing.T) {
	v := newVM(1)
	v.Go("w", 0, func(th *Thread) { th.Compute(100 * Microsecond) })
	st, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := 100*Microsecond + v.Cost().ThreadSpawn
	if st.Time != want {
		t.Fatalf("makespan = %v, want %v", st.Time, want)
	}
	if st.Cores[0].Busy != 100*Microsecond {
		t.Fatalf("busy = %v, want 100µs", st.Cores[0].Busy)
	}
}

func TestParallelThreadsOnDistinctCores(t *testing.T) {
	v := newVM(4)
	for i := 0; i < 4; i++ {
		v.Go("w", i, func(th *Thread) { th.Compute(Millisecond) })
	}
	st, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := Millisecond + v.Cost().ThreadSpawn
	if st.Time != want {
		t.Fatalf("parallel makespan = %v, want %v", st.Time, want)
	}
}

func TestOversubscribedCoreSerializes(t *testing.T) {
	v := newVM(1)
	for i := 0; i < 3; i++ {
		v.Go("w", 0, func(th *Thread) { th.Compute(Millisecond) })
	}
	st, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Time < 3*Millisecond {
		t.Fatalf("oversubscribed makespan = %v, want ≥ 3ms", st.Time)
	}
	// Context switches should add measurable but bounded overhead.
	if st.Time > 4*Millisecond {
		t.Fatalf("oversubscribed makespan = %v, unreasonably large", st.Time)
	}
}

func TestQuantumPreemptionInterleaves(t *testing.T) {
	// A long compute must not starve a short thread sharing the core.
	v := newVM(1)
	var shortDone, longDone Time
	v.Go("long", 0, func(th *Thread) {
		th.Compute(50 * Millisecond)
		longDone = th.Now()
	})
	v.Go("short", 0, func(th *Thread) {
		th.Compute(Millisecond)
		shortDone = th.Now()
	})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if shortDone >= longDone {
		t.Fatalf("short thread finished at %v, after long thread at %v", shortDone, longDone)
	}
	if shortDone > 10*Millisecond {
		t.Fatalf("short thread starved until %v", shortDone)
	}
}

func TestSharedMemoryVisibility(t *testing.T) {
	// Real Go code runs inside virtual threads; increments under a mutex
	// must all be observed (the simulator serializes real execution).
	v := newVM(8)
	var m Mutex
	counter := 0
	for i := 0; i < 8; i++ {
		v.Go("w", i, func(th *Thread) {
			for j := 0; j < 100; j++ {
				th.Lock(&m)
				counter++
				th.Unlock(&m)
			}
		})
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if counter != 800 {
		t.Fatalf("counter = %d, want 800", counter)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() Stats {
		v := New(Config{Cores: 8, Sockets: 2})
		var b Barrier
		b.N = 8
		for i := 0; i < 8; i++ {
			i := i
			v.Go("w", i, func(th *Thread) {
				th.Compute(Time(i+1) * 100 * Microsecond)
				th.BarrierWait(&b)
				th.Compute(Time(8-i) * 50 * Microsecond)
			})
		}
		st, err := v.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.Time != b.Time || a.Events != b.Events {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
}

func TestDeadlockDetection(t *testing.T) {
	v := newVM(2)
	var m1, m2 Mutex
	v.Go("a", 0, func(th *Thread) {
		th.Lock(&m1)
		th.Compute(Microsecond)
		th.Lock(&m2)
	})
	v.Go("b", 1, func(th *Thread) {
		th.Lock(&m2)
		th.Compute(2 * Microsecond)
		th.Lock(&m1)
	})
	_, err := v.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

// waitGoroutines fails unless the goroutine count comes back to base. A
// finished virtual thread signals Run before its goroutine has fully exited,
// so the check retries; the verdict is the count, the clock only bounds the
// wait.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines, %d before the runs", n, base)
	}
}

func TestDeadlockUnwindsThreads(t *testing.T) {
	// A deadlocked Run must take its stuck threads with it: blocked off-core,
	// parked spinning, and one whose deferred call re-enters the machine.
	base := runtime.NumGoroutine()
	unlocked := 0
	for i := 0; i < 50; i++ {
		v := newVM(3)
		var m1, m2 Mutex
		var never WaitSet
		v.Go("a", 0, func(th *Thread) {
			th.Lock(&m1)
			defer func() {
				th.Unlock(&m1) // runs during the unwind, and wakes nobody
				unlocked++
			}()
			th.Compute(Microsecond)
			th.Lock(&m2)
		})
		v.Go("b", 1, func(th *Thread) {
			th.Lock(&m2)
			th.Compute(2 * Microsecond)
			th.Lock(&m1)
		})
		v.Go("c", 2, func(th *Thread) {
			th.SpinUntil(&never, func() bool { return false })
		})
		_, err := v.Run()
		const want = "vm: deadlock at 14.090µs: a[blocked:mutex], b[blocked:mutex], c[spinning]"
		if err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %s", err, want)
		}
	}
	if unlocked != 50 {
		t.Fatalf("deferred calls of unwound threads ran %d times, want 50", unlocked)
	}
	waitGoroutines(t, base)
}

func TestFinishedRunLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		v := newVM(2)
		for c := 0; c < 4; c++ {
			v.Go("w", c%2, func(th *Thread) { th.Compute(3 * Millisecond) })
		}
		if _, err := v.Run(); err != nil {
			t.Fatal(err)
		}
	}
	waitGoroutines(t, base)
}

func TestSleepAdvancesTime(t *testing.T) {
	v := newVM(1)
	var woke Time
	v.Go("s", 0, func(th *Thread) {
		th.Sleep(7 * Millisecond)
		woke = th.Now()
	})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if woke < 7*Millisecond {
		t.Fatalf("woke at %v, want ≥ 7ms", woke)
	}
}

func TestChargeAccumulates(t *testing.T) {
	v := newVM(1)
	v.Go("c", 0, func(th *Thread) {
		for i := 0; i < 1000; i++ {
			th.Charge(100 * Nanosecond)
		}
		th.Flush()
	})
	st, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := 100*Microsecond + v.Cost().ThreadSpawn
	if st.Time != want {
		t.Fatalf("accumulated charges: makespan %v, want %v", st.Time, want)
	}
}

func TestMemCostWarmth(t *testing.T) {
	v := New(Config{Cores: 16, Sockets: 2})
	key := new(int)
	const bytes = 1 << 20

	cold := v.MemCost(0, key, bytes, true) // first write: cold, homes on core 0
	warm := v.MemCost(0, key, bytes, false)
	if warm >= cold {
		t.Fatalf("same-core warm (%v) should beat cold (%v)", warm, cold)
	}
	v2 := New(Config{Cores: 16, Sockets: 2})
	v2.MemCost(0, key, bytes, true)
	sameSocket := v2.MemCost(1, key, bytes, false) // cores 0..7 = socket 0
	if sameSocket >= cold || sameSocket <= warm {
		t.Fatalf("same-socket %v should sit between same-core %v and cold %v", sameSocket, warm, cold)
	}
	v3 := New(Config{Cores: 16, Sockets: 2})
	v3.MemCost(0, key, bytes, true)
	remote := v3.MemCost(8, key, bytes, false) // socket 1
	if remote <= cold {
		t.Fatalf("cross-socket %v should exceed cold %v", remote, cold)
	}
}

func TestMemCostDecay(t *testing.T) {
	v := newVM(2)
	key := new(int)
	v.MemCost(0, key, 1<<20, true)
	v.now += v.Cost().CacheDecay + 1 // advance past warmth window
	stale := v.MemCost(0, key, 1<<20, false)
	cold := Time(float64(1<<20) * v.Cost().NsPerByte)
	if stale != cold {
		t.Fatalf("stale access = %v, want cold %v", stale, cold)
	}
}

func TestUtilizationAndOccupancy(t *testing.T) {
	v := newVM(2)
	var sb SpinBarrier
	sb.N = 2
	v.Go("fast", 0, func(th *Thread) {
		th.Compute(Microsecond)
		th.SpinBarrierWait(&sb) // spins ~10ms waiting for slow
	})
	v.Go("slow", 1, func(th *Thread) {
		th.Compute(10 * Millisecond)
		th.SpinBarrierWait(&sb)
	})
	st, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Occupancy() <= st.Utilization() {
		t.Fatalf("occupancy %.3f should exceed utilization %.3f when spinning",
			st.Occupancy(), st.Utilization())
	}
	if st.Cores[0].Spin < 9*Millisecond {
		t.Fatalf("fast core spin = %v, want ≈10ms", st.Cores[0].Spin)
	}
}

func TestNestedThreadSpawn(t *testing.T) {
	v := newVM(4)
	total := 0
	v.Go("parent", 0, func(th *Thread) {
		done := 0
		var dw WaitSet
		for i := 1; i < 4; i++ {
			th.Go("child", i, func(c *Thread) {
				c.Compute(Millisecond)
				total++
				done++
				dw.WakeAll(c.VM())
			})
		}
		th.SpinUntil(&dw, func() bool { return done == 3 })
	})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 3 {
		t.Fatalf("children run = %d, want 3", total)
	}
}

func TestDeterminismProperty(t *testing.T) {
	// For arbitrary small workloads, two runs of one configuration must
	// produce identical makespans and event counts.
	f := func(n uint8, w uint16) bool {
		threads := int(n%8) + 1
		work := Time(w%1000+1) * Microsecond
		run := func() Stats {
			v := New(Config{Cores: 4, Sockets: 2})
			var m Mutex
			shared := 0
			for i := 0; i < threads; i++ {
				i := i
				v.Go("w", i%4, func(th *Thread) {
					th.Compute(work * Time(i+1) / 2)
					th.Lock(&m)
					shared++
					th.Unlock(&m)
					th.Compute(work)
				})
			}
			st, err := v.Run()
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		a, b := run(), run()
		return a.Time == b.Time && a.Events == b.Events
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		5 * Nanosecond:          "5ns",
		3 * Microsecond:         "3.000µs",
		2500 * Microsecond:      "2.500ms",
		1500 * Millisecond:      "1.500s",
		Time(42):                "42ns",
		Time(1001) * Nanosecond: "1.001µs",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(in), got, want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Cores != 1 || c.Sockets != 1 || c.Quantum != Millisecond {
		t.Fatalf("bad defaults: %+v", c)
	}
	if c.Cost.TaskSpawn == 0 {
		t.Fatal("zero cost model not replaced with defaults")
	}
	c2 := Config{Cores: 4, Sockets: 9}.withDefaults()
	if c2.Sockets != 4 {
		t.Fatalf("sockets should clamp to cores, got %d", c2.Sockets)
	}
}

func TestSocketLayout(t *testing.T) {
	v := New(Config{Cores: 32, Sockets: 4})
	for i := 0; i < 32; i++ {
		if want := i / 8; v.Socket(i) != want {
			t.Fatalf("core %d socket = %d, want %d", i, v.Socket(i), want)
		}
	}
}
