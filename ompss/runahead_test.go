package ompss

import (
	"sync/atomic"
	"testing"

	"ompssgo/machine"
)

// TestBodyWaitingOnCreatorNeedsWiderWindow states the contract the run-ahead
// window adds: a creator that finds the window full executes ready tasks, so
// a body can run before statements that follow its spawn in the creator's
// program — and a body that waited for one of them (a channel the creator
// closes after more spawns) would wait for the thread executing it. Workers(1)
// makes the master the only executor and the chain makes the head the only
// ready task, so where the head runs is exact: inside the spawn that fills the
// default window, or — with the window lifted or wide enough — in the Taskwait
// after the creator's later statement.
func TestBodyWaitingOnCreatorNeedsWiderWindow(t *testing.T) {
	const spawns = runAheadPerWorker + 1
	headRanAfterCreator := func(opts ...Option) bool {
		rt := New(append([]Option{Workers(1)}, opts...)...)
		defer rt.Shutdown()
		var x int
		d := rt.Register(&x)
		later, ranAfter := false, false
		rt.Task(func(*TC) { ranAfter = later }, d.AsInOut())
		for i := 1; i < spawns; i++ {
			rt.Task(func(*TC) { x++ }, d.AsInOut())
		}
		later = true // what a gated head would have waited for
		rt.Taskwait()
		if x != spawns-1 {
			t.Fatalf("x = %d, want %d", x, spawns-1)
		}
		return ranAfter
	}
	if headRanAfterCreator() {
		t.Fatalf("default window: %d spawns ran ahead of a %d-task window", spawns, runAheadPerWorker)
	}
	if !headRanAfterCreator(MaxInFlight(-1)) {
		t.Fatal("MaxInFlight(-1): the creator executed a task inside a spawn")
	}
	if !headRanAfterCreator(MaxInFlight(spawns)) {
		t.Fatalf("MaxInFlight(%d): the creator executed a task inside a spawn the window covers", spawns)
	}
}

// nestedWaiters is the throttle's deadlock shape: more parents than window
// slots, each spawning its children from inside its body and waiting for
// them there. Every slot ends up held by a parent blocked in a nested
// Taskwait, so the program finishes only if creators inside a task body are
// never held.
func nestedWaiters(rt *Runtime) int64 {
	const parents, children = 6, 3
	var ran atomic.Int64
	for p := 0; p < parents; p++ {
		rt.Task(func(tc *TC) {
			for c := 0; c < children; c++ {
				tc.Task(func(*TC) { ran.Add(1) })
			}
			tc.Taskwait()
			ran.Add(1)
		})
	}
	rt.Taskwait()
	return ran.Load() - parents*(children+1)
}

func TestNestedTaskwaitHoldingEveryWindowSlot(t *testing.T) {
	for _, wait := range []WaitMode{Polling, Blocking} {
		for _, window := range []int{1, 2} {
			opts := []Option{Workers(2), Wait(wait), MaxInFlight(window)}
			rt := New(opts...)
			if off := nestedWaiters(rt); off != 0 {
				t.Errorf("native wait=%d window=%d: task count off by %d", wait, window, off)
			}
			rt.Shutdown()
			if _, err := RunSim(machine.Paper(2), func(rt *Runtime) {
				if off := nestedWaiters(rt); off != 0 {
					t.Errorf("sim wait=%d window=%d: task count off by %d", wait, window, off)
				}
			}, opts...); err != nil {
				t.Fatalf("sim wait=%d window=%d: %v", wait, window, err)
			}
		}
	}
}

// TestWaitPathAllocs pins the two waits that happen per task or per request
// rather than per program: a Taskwait over a drained scope allocates nothing,
// and neither does a Task spawn held by the window — no Handle, nothing for
// the throttle itself, and the shared ready queue reuses its ring (the held
// chain link is ready at submission).
func TestWaitPathAllocs(t *testing.T) {
	rt := New(Workers(1), MaxInFlight(1))
	defer rt.Shutdown()
	if n := testing.AllocsPerRun(100, rt.Taskwait); n != 0 {
		t.Errorf("Taskwait on a drained runtime: %v allocs, want 0", n)
	}
	var x int
	in := rt.Register(&x).AsInOut()
	body := func(*TC) { x++ }
	rt.Task(body, in) // fills the window: every spawn below is held
	if all, net := spawnAllocs(100, func() { rt.Task(body, in) }); net != 0 || (!raceDetector && all != 0) {
		t.Errorf("held spawn: %d allocs, %d beside the pool's refills, want 0", all, net)
	}
	rt.Taskwait()
}
