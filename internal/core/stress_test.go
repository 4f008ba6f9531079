package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestEngineConcurrentStress drives Graph+Sched the way the native executor
// does — from real goroutines with no external lock: S submitters wire
// dependent tasks over shared data with mixed In/Out/InOut
// accesses while W workers pop, steal, execute, and finish.
// The invariants checked are the ones a lost race would break: every task
// runs exactly once, Submitted == Finished, and no ready task is stranded
// in any queue. Run under -race in CI.
func TestEngineConcurrentStress(t *testing.T) {
	const (
		nWorkers    = 4
		nSubmitters = 4
		perSub      = 1500
		nData       = 16
	)
	total := nSubmitters * perSub

	g := NewGraph()
	s := NewSched(nWorkers, DefaultPolicy(), 42)

	keys := make([]any, nData)
	for i := range keys {
		keys[i] = new(int64)
	}
	modes := []Mode{In, Out, InOut}

	runCount := make([]atomic.Int32, total)
	var finished atomic.Int64
	var submittedAll atomic.Bool

	runOne := func(tk *Task, lane int) {
		g.MarkRunning(tk, lane)
		runBody(tk)
		for _, r := range g.Finish(tk, nil) {
			s.PushReady(r, lane)
		}
		finished.Add(1)
	}

	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				tk := s.Pop(lane)
				if tk == nil {
					if submittedAll.Load() && g.Unfinished() == 0 {
						return
					}
					runtime.Gosched()
					continue
				}
				runOne(tk, lane)
			}
		}(w)
	}

	var sg sync.WaitGroup
	for sub := 0; sub < nSubmitters; sub++ {
		sg.Add(1)
		go func(sub int) {
			defer sg.Done()
			rng := rand.New(rand.NewSource(int64(sub) + 1))
			for i := 0; i < perSub; i++ {
				id := sub*perSub + i
				var acc []Access
				nacc := rng.Intn(3) + 1
				used := map[int]bool{}
				for j := 0; j < nacc; j++ {
					di := rng.Intn(nData)
					if used[di] {
						continue
					}
					used[di] = true
					acc = append(acc, Access{Key: keys[di], Mode: modes[rng.Intn(len(modes))]})
				}
				tk := &Task{Accesses: acc}
				tk.Owner = testBody(func() error { runCount[id].Add(1); return nil })
				if g.Submit(tk) {
					s.PushSubmit(tk)
				}
			}
		}(sub)
	}
	sg.Wait()
	submittedAll.Store(true)
	wg.Wait()

	if got := finished.Load(); got != int64(total) {
		t.Fatalf("finished %d tasks, want %d", got, total)
	}
	st := g.Stats()
	if st.Submitted != uint64(total) || st.Finished != uint64(total) {
		t.Fatalf("graph imbalance: submitted=%d finished=%d want %d",
			st.Submitted, st.Finished, total)
	}
	if g.Unfinished() != 0 {
		t.Fatalf("unfinished=%d after drain", g.Unfinished())
	}
	if s.Ready() != 0 {
		t.Fatalf("ready=%d tasks stranded in queues", s.Ready())
	}
	for id := range runCount {
		if n := runCount[id].Load(); n != 1 {
			t.Fatalf("task %d ran %d times", id, n)
		}
	}
}

// TestSubmitVsFinishRace hammers the exact window the submission guard
// protects: a two-task chain where the predecessor finishes on another
// goroutine while the successor is mid-submission. A regression here shows
// up as a double release (task runs twice) or a lost release (hang —
// bounded by the iteration count, caught as stranded ready/unfinished).
func TestSubmitVsFinishRace(t *testing.T) {
	const iters = 3000
	g := NewGraph()
	s := NewSched(2, DefaultPolicy(), 7)
	dom := &Domain{Scoped: true} // owns each iteration's datum, released at its end
	for i := 0; i < iters; i++ {
		x := new(int)
		var ran0, ran1 atomic.Int32
		t0 := &Task{Domain: dom, Accesses: []Access{{Key: x, Mode: Out}}}
		t0.Owner = testBody(func() error { ran0.Add(1); return nil })
		if !g.Submit(t0) {
			t.Fatal("t0 should be ready")
		}

		// Finish t0 on a second goroutine while this one submits t1.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.MarkRunning(t0, 0)
			runBody(t0)
			for _, r := range g.Finish(t0, nil) {
				s.PushReady(r, 0)
			}
		}()
		t1 := &Task{Accesses: []Access{{Key: x, Mode: In}}}
		t1.Owner = testBody(func() error { ran1.Add(1); return nil })
		ready := g.Submit(t1)
		wg.Wait()

		if ready {
			s.PushSubmit(t1)
		}
		// Exactly one enqueue must have happened: pop until t1 executes.
		for t1.NPred() > 0 {
			// released by the finisher; nothing to do
		}
		got := s.Pop(1)
		if got != t1 {
			t.Fatalf("iter %d: popped %v, want t1", i, got)
		}
		g.MarkRunning(t1, 1)
		runBody(t1)
		g.Finish(t1, nil)
		if s.Pop(1) != nil {
			t.Fatalf("iter %d: t1 enqueued twice", i)
		}
		if ran1.Load() != 1 {
			t.Fatalf("iter %d: t1 ran %d times", i, ran1.Load())
		}
		g.Release(dom)
	}
}
