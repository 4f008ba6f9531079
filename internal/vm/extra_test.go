package vm

import "testing"

func TestYieldRotatesOversubscribedCore(t *testing.T) {
	v := newVM(1)
	var order []string
	v.Go("a", 0, func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.Compute(10 * Microsecond)
			order = append(order, "a")
			th.Yield()
		}
	})
	v.Go("b", 0, func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.Compute(10 * Microsecond)
			order = append(order, "b")
			th.Yield()
		}
	})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	// With cooperative yields, neither thread should finish all three
	// slices before the other starts.
	if order[0] == order[1] && order[1] == order[2] {
		t.Fatalf("yield did not interleave: %v", order)
	}
}

func TestCustomCostModel(t *testing.T) {
	cm := DefaultCostModel()
	cm.ThreadSpawn = 100 * Microsecond
	v := New(Config{Cores: 1, Cost: cm})
	v.Go("w", 0, func(th *Thread) { th.Compute(Microsecond) })
	st, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Time != 101*Microsecond {
		t.Fatalf("custom spawn cost ignored: %v", st.Time)
	}
}

func TestBandwidthContentionScalesWithActiveCores(t *testing.T) {
	// The same cold access costs more when other cores are computing.
	quiet := New(Config{Cores: 8, Sockets: 1})
	soloCost := quiet.MemCost(0, new(int), 1<<20, true)

	busy := New(Config{Cores: 8, Sockets: 1})
	for i := 0; i < 8; i++ {
		busy.Go("w", i, func(th *Thread) { th.Compute(10 * Millisecond) })
	}
	// Let the run start so cores become active, then sample MemCost from
	// a fresh key inside a probe thread.
	var contended Time
	probe := New(Config{Cores: 8, Sockets: 1})
	for i := 1; i < 8; i++ {
		probe.Go("load", i, func(th *Thread) { th.Compute(10 * Millisecond) })
	}
	probe.Go("probe", 0, func(th *Thread) {
		th.Compute(Millisecond) // others are mid-compute now
		contended = th.TouchCost(new(int), 1<<20, true)
	})
	if _, err := probe.Run(); err != nil {
		t.Fatal(err)
	}
	if contended <= soloCost {
		t.Fatalf("contended access (%v) should exceed solo (%v)", contended, soloCost)
	}
}

func TestSpinDoesNotPressureBandwidth(t *testing.T) {
	// Parked spinners are not "active": a cold access while 7 cores spin
	// costs the same as solo.
	v := New(Config{Cores: 8, Sockets: 1})
	solo := v.MemCost(0, new(int), 1<<20, true)
	var sv SpinVar
	var measured Time
	for i := 1; i < 8; i++ {
		v.Go("spinner", i, func(th *Thread) { th.SpinWaitGE(&sv, 1) })
	}
	v.Go("worker", 0, func(th *Thread) {
		th.Compute(Millisecond) // spinners have parked by now
		measured = th.TouchCost(new(int), 1<<20, true)
		th.SpinStore(&sv, 1)
	})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if measured != solo {
		t.Fatalf("spinners inflated memory cost: %v vs %v", measured, solo)
	}
}
