package core

import (
	"slices"
	"testing"
)

// victimOrder materializes the full steal-probe order of Policy.Victim.
func victimOrder(p Policy, worker, workers int, rnd uint64) []int {
	var order []int
	for i := 0; ; i++ {
		v := p.Victim(i, worker, workers, rnd)
		if v < 0 {
			return order
		}
		order = append(order, v)
	}
}

func TestVictimOrderCoversEveryOtherWorker(t *testing.T) {
	p := DefaultPolicy()
	for _, workers := range []int{1, 2, 5, 8, 33} {
		// In-range workers skip themselves; out-of-range callers (the
		// overflow stats lane at index `workers`, and -1) probe everyone.
		for w := -1; w <= workers; w++ {
			for _, rnd := range []uint64{0, 1, 0xdeadbeefcafe, ^uint64(0)} {
				// The ring of lanes rotated to start at rnd % workers.
				var want []int
				for k := 0; k < workers; k++ {
					if v := (int(rnd%uint64(workers)) + k) % workers; v != w {
						want = append(want, v)
					}
				}
				if order := victimOrder(p, w, workers, rnd); !slices.Equal(order, want) {
					t.Fatalf("w=%d/%d rnd=%d: victim order %v, want %v", w, workers, rnd, order, want)
				}
			}
		}
	}
}

func TestPriorityReleaseLandsOnPrioLane(t *testing.T) {
	s := NewSched(2, DefaultPolicy(), 1)
	lo := &Task{Label: "lo"}
	hi := &Task{Label: "hi", Priority: 3}
	s.PushReady(lo, 0) // locality deque
	s.PushReady(hi, 0) // priority lane
	// The priority successor is popped before the locality chain.
	if got := s.Pop(0); got != hi {
		t.Fatalf("expected priority lane first, got %q", got.Label)
	}
	if got := s.Pop(0); got != lo {
		t.Fatalf("expected locality deque second, got %q", got.Label)
	}
	st := s.Stats()
	if st.PrioPops != 1 || st.LocalPops != 1 {
		t.Fatalf("stats = %+v, want one prio pop and one local pop", st)
	}
}

func TestPrioLaneStealable(t *testing.T) {
	s := NewSched(2, DefaultPolicy(), 1)
	hi := &Task{Priority: 5}
	s.PushReady(hi, 0)
	if got := s.Pop(1); got != hi {
		t.Fatal("thief should steal from the victim's priority lane")
	}
}

// TestWideSchedStealsAllocationFree pins the steal hot path at a worker
// count beyond any stack buffer: one worker drains every other lane's work
// by stealing, and an idle Pop sweep (the Polling-mode
// spin state) must not allocate.
func TestWideSchedStealsAllocationFree(t *testing.T) {
	const workers = 48
	s := NewSched(workers, DefaultPolicy(), 1)
	for i := 0; i < workers; i++ {
		s.PushReady(&Task{}, i)
	}
	got := 0
	for i := 0; i < workers; i++ {
		if s.Pop(7) != nil {
			got++
		}
	}
	if got != workers {
		t.Fatalf("worker 7 drained %d of %d tasks", got, workers)
	}
	if s.Pop(7) != nil {
		t.Fatal("scheduler should be empty")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if s.Pop(7) != nil {
			t.Fatal("unexpected task")
		}
	})
	if allocs > 0 {
		t.Fatalf("idle Pop allocates %.1f/op at %d workers; the steal path must be allocation-free", allocs, workers)
	}
}
