package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoppedTasksAreNotPinned checks that the scheduler lets go of a task
// once it is popped: no ring of the shared queue, at level 0 or above, may
// keep it reachable. Finalizers count the bare tasks the collector frees.
func TestPoppedTasksAreNotPinned(t *testing.T) {
	for _, c := range []struct {
		queue    string
		priority int
	}{{"level 0", 0}, {"above level 0", 1}} {
		s := NewSched(1, DefaultPolicy(), 1)
		const n = 8
		var freed atomic.Int32
		for i := 0; i < n; i++ {
			tk := &Task{ID: uint64(i + 1), Priority: c.priority}
			runtime.SetFinalizer(tk, func(*Task) { freed.Add(1) })
			s.PushSubmit(tk)
		}
		for i := 0; i < n; i++ {
			if s.Pop(0) == nil {
				t.Fatalf("%s: pop %d found nothing", c.queue, i)
			}
		}
		// Finalizers run on their own goroutine after a collection: give
		// them a bounded number of rounds.
		for round := 0; round < 200 && freed.Load() < n; round++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		runtime.KeepAlive(s)
		if got := freed.Load(); got != n {
			t.Errorf("%s: %d of %d popped tasks freed; the queue still reaches the rest", c.queue, got, n)
		}
	}
}

// TestSteadySubmitPopAllocationFree checks that the shared queue reuses its
// rings: once warm, a PushSubmit/Pop stream allocates nothing at either
// kind of level.
func TestSteadySubmitPopAllocationFree(t *testing.T) {
	s := NewSched(2, DefaultPolicy(), 1)
	tasks := []*Task{{ID: 1}, {ID: 2, Priority: 2}, {ID: 3}, {ID: 4, Priority: -1}}
	cycle := func() {
		for _, tk := range tasks {
			s.PushSubmit(tk)
		}
		for range tasks {
			if s.Pop(0) == nil {
				t.Fatal("pop found nothing")
			}
		}
	}
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("PushSubmit/Pop allocates %.1f per cycle of %d tasks, want 0", a, len(tasks))
	}
}
