package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestReadyQueueExactlyOnce drives the shared queue with concurrent
// producers and consumers at mixed priority levels: no task lost, none
// duplicated.
func TestReadyQueueExactlyOnce(t *testing.T) {
	const (
		nProducers = 4
		nConsumers = 4
		perProd    = 5000
	)
	var q readyQueue
	total := nProducers * perProd
	taken := make([]atomic.Int32, total)
	var consumed atomic.Int64

	var wg sync.WaitGroup
	for p := 0; p < nProducers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				// Levels 0..3, with negative priorities sharing level 0.
				q.push(&Task{ID: uint64(p*perProd + i), Priority: i%5 - 1})
			}
		}(p)
	}
	var cg sync.WaitGroup
	for c := 0; c < nConsumers; c++ {
		cg.Add(1)
		go func(c int) {
			defer cg.Done()
			for k := 0; consumed.Load() < int64(total); k++ {
				// Half the consumers alternate the two kinds of pop.
				if tk := q.pop(c%2 == 0 && k%2 == 0); tk != nil {
					taken[tk.ID].Add(1)
					consumed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	cg.Wait()
	for id := range taken {
		if n := taken[id].Load(); n != 1 {
			t.Fatalf("task %d consumed %d times", id, n)
		}
	}
	if q.pop(false) != nil || q.n.Load() != 0 || q.high.Load() != 0 {
		t.Fatalf("queue should be empty: n=%d high=%d", q.n.Load(), q.high.Load())
	}
}

// TestReadyQueueFIFOWithinLevel checks submission order within each level,
// across ring growth and wrap-around.
func TestReadyQueueFIFOWithinLevel(t *testing.T) {
	var q readyQueue
	id := uint64(0)
	next := func(prio int) *Task { id++; return &Task{ID: id, Priority: prio} }
	// The first round grows the ring; later ones start mid-ring and wrap.
	for round := 0; round < 3; round++ {
		var want []*Task
		for i := 0; i < 100; i++ {
			want = append(want, next(0))
			q.push(want[i])
		}
		for i, w := range want {
			if got := q.pop(false); got != w {
				t.Fatalf("round %d pop %d: got %v, want task %d", round, i, got, w.ID)
			}
		}
	}
	var lo, hi []*Task
	for i := 0; i < 70; i++ {
		lo = append(lo, next(-i%3)) // 0, -1, -2: all level 0
		hi = append(hi, next(2))
		q.push(lo[i])
		q.push(hi[i])
	}
	for i, w := range append(hi, lo...) {
		if got := q.pop(false); got != w {
			t.Fatalf("pop %d: got %v, want task %d", i, got, w.ID)
		}
	}
	if q.pop(false) != nil {
		t.Fatal("queue should be empty")
	}
}

// TestReadyQueueHighestLevelFirst checks that pop takes the highest
// non-empty level whatever order the levels were created in.
func TestReadyQueueHighestLevelFirst(t *testing.T) {
	var q readyQueue
	prios := []int{0, 3, 1, 5, -4, 2, 5, 1}
	for i, p := range prios {
		q.push(&Task{ID: uint64(i), Priority: p})
	}
	want := []uint64{3, 6, 1, 5, 2, 7, 0, 4}
	for i, w := range want {
		if got := q.pop(false); got == nil || got.ID != w {
			t.Fatalf("pop %d: got %v, want task %d", i, got, w)
		}
	}
	for i := 1; i < len(q.levels); i++ {
		if q.levels[i-1].prio >= q.levels[i].prio {
			t.Fatalf("levels out of order: %d before %d", q.levels[i-1].prio, q.levels[i].prio)
		}
	}
}

// TestReadyQueueHighPopSkipsLevel0 checks that a pop limited to work above
// level 0 never returns level-0 work.
func TestReadyQueueHighPopSkipsLevel0(t *testing.T) {
	var q readyQueue
	if q.pop(true) != nil || q.pop(false) != nil {
		t.Fatal("empty queue popped a task")
	}
	lo := &Task{ID: 1}
	q.push(lo)
	q.push(&Task{ID: 2, Priority: -1})
	if got := q.pop(true); got != nil {
		t.Fatalf("high pop returned level-0 task %d", got.ID)
	}
	hi := &Task{ID: 3, Priority: 1}
	q.push(hi)
	if got := q.pop(true); got != hi {
		t.Fatalf("high pop got %v, want the priority task", got)
	}
	if got := q.pop(true); got != nil {
		t.Fatalf("high pop returned level-0 task %d", got.ID)
	}
	if got := q.pop(false); got != lo {
		t.Fatalf("pop got %v, want the first level-0 task", got)
	}
}
