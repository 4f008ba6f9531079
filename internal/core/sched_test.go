package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoppedTasksAreNotPinned checks that the scheduler lets go of a task
// once it is popped: neither the priority side queue's backing array nor the
// global FIFO's dummy head may keep it reachable. Finalizers count the bare
// tasks the collector frees.
func TestPoppedTasksAreNotPinned(t *testing.T) {
	for _, c := range []struct {
		queue    string
		priority int
	}{{"global FIFO", 0}, {"priority side queue", 1}} {
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
