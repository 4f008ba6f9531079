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

// TestPriorityReleaseBeatsLocalityChain checks that a released priority
// successor is popped before the lane's own locality chain, whichever was
// released first.
func TestPriorityReleaseBeatsLocalityChain(t *testing.T) {
	for _, hiFirst := range []bool{false, true} {
		s := NewSched(2, DefaultPolicy(), 1)
		lo := &Task{Label: "lo"}
		hi := &Task{Label: "hi", Priority: 3}
		if hiFirst {
			s.PushReady(hi, 0)
			s.PushReady(lo, 0)
		} else {
			s.PushReady(lo, 0)
			s.PushReady(hi, 0)
		}
		if got := s.Pop(0); got != hi {
			t.Fatalf("hi released first = %v: popped %q before the priority task", hiFirst, got.Label)
		}
		if got := s.Pop(0); got != lo {
			t.Fatalf("hi released first = %v: expected the locality deque second, got %v", hiFirst, got)
		}
		if st := s.Stats(); st.PrioPops != 1 || st.LocalPops != 1 || st.GlobalPops != 0 {
			t.Fatalf("stats = %+v, want one prio pop and one local pop", st)
		}
	}
}

// TestPriorityReleaseTakenByAnotherLane checks that a priority successor
// released on one lane can be taken by another lane's first probe.
func TestPriorityReleaseTakenByAnotherLane(t *testing.T) {
	s := NewSched(2, DefaultPolicy(), 1)
	hi := &Task{Priority: 5}
	s.PushReady(hi, 0)
	if got := s.Pop(1); got != hi {
		t.Fatal("another lane should take the released priority task")
	}
	if st := s.Stats(); st.PrioPops != 1 || st.Steals != 0 {
		t.Fatalf("stats = %+v, want one prio pop and no steal", st)
	}
}

// TestSubmittedPriorityBeatsOwnDeque checks that priority work ready at
// submission outranks a lane's own deque.
func TestSubmittedPriorityBeatsOwnDeque(t *testing.T) {
	s := NewSched(2, DefaultPolicy(), 1)
	lo := &Task{Label: "lo"}
	hi := &Task{Label: "hi", Priority: 1}
	s.PushReady(lo, 0)
	s.PushSubmit(hi)
	if got := s.Pop(0); got != hi {
		t.Fatalf("popped %q before the submitted priority task", got.Label)
	}
	if got := s.Pop(0); got != lo {
		t.Fatalf("expected the locality deque second, got %v", got)
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
