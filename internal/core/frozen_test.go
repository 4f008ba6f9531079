package core

import "testing"

// TestBenchmarkProbeSurface pins, inside the main module, the exact way
// benchmark/probes.go drives this package: `go test ./...` never compiles
// the nested benchmark module, so without this a refactor that breaks the
// instrument would only fail there. The probes build zero-valued Task
// literals — no body, parent, domain or executor record around them — push
// them through Submit/MarkRunning/Finish on eight registered InOut chains,
// then through a two-lane scheduler's push, pop and steal paths. Field
// names, types and signatures used here are the frozen surface.
func TestBenchmarkProbeSurface(t *testing.T) {
	const n = 2000
	type cell struct {
		v int64
		_ [56]byte
	}

	g := NewGraph()
	cells := make([]cell, 8)
	ds := make([]*Datum, len(cells))
	for i := range cells {
		ds[i] = g.Register(&cells[i])
	}
	tasks := make([]*Task, n)
	for i := range tasks {
		d := ds[i%len(ds)]
		tasks[i] = &Task{ID: uint64(i + 1), Accesses: []Access{{Key: d.Key, Mode: InOut, Datum: d}}}
	}
	for i, tk := range tasks {
		// The head of each chain is ready at once; every later link waits
		// for exactly its predecessor on the chain.
		if ready, want := g.Submit(tk), i < len(ds); ready != want {
			t.Fatalf("task %d: Submit ready = %v, want %v", i, ready, want)
		}
		if tk.ID != uint64(i+1) {
			t.Fatalf("task %d: ID = %d after Submit", i, tk.ID)
		}
	}
	if st := g.Stats(); st.Submitted != n || st.Finished != 0 || st.Edges != n-uint64(len(ds)) {
		t.Fatalf("after submit: %+v", st)
	}
	if g.Unfinished() != n {
		t.Fatalf("Unfinished = %d, want %d", g.Unfinished(), n)
	}
	// Submission order is a topological order of the chains.
	for i, tk := range tasks {
		g.MarkRunning(tk, 0)
		released := g.Finish(tk, nil)
		if i+len(ds) < n {
			if len(released) != 1 || released[0] != tasks[i+len(ds)] {
				t.Fatalf("task %d released %v, want its chain successor", i, released)
			}
		} else if len(released) != 0 {
			t.Fatalf("chain tail %d released %v", i, released)
		}
		if !tk.Finished() || tk.Err() != nil {
			t.Fatalf("task %d: finished = %v, err = %v", i, tk.Finished(), tk.Err())
		}
	}
	if st := g.Stats(); st.Submitted != n || st.Finished != n || st.Failed != 0 {
		t.Fatalf("after finish: %+v", st)
	}
	if g.Unfinished() != 0 {
		t.Fatalf("Unfinished = %d after the drain", g.Unfinished())
	}

	// The scheduler probes use tasks that never saw a graph.
	bare := make([]*Task, n)
	for i := range bare {
		bare[i] = &Task{ID: uint64(i + 1)}
	}
	// Half take the submission path (global FIFO), half the release path
	// (worker 0's own deque); worker 0 pops its deque LIFO first, then the
	// FIFO in submission order.
	s := NewSched(2, DefaultPolicy(), 1)
	for i, tk := range bare {
		if i%2 == 0 {
			s.PushSubmit(tk)
		} else {
			s.PushReady(tk, 0)
		}
	}
	for i := 0; i < n/2; i++ {
		if got, want := s.Pop(0), bare[n-1-2*i]; got != want {
			t.Fatalf("pop %d: task %d, want %d (own deque, LIFO)", i, got.ID, want.ID)
		}
	}
	for i := 0; i < n/2; i++ {
		if got, want := s.Pop(0), bare[2*i]; got != want {
			t.Fatalf("pop %d: task %d, want %d (global FIFO)", n/2+i, got.ID, want.ID)
		}
	}
	if st := s.Stats(); st.LocalPops != n/2 || st.GlobalPops != n/2 || st.Steals != 0 {
		t.Fatalf("push/pop stats: %+v", st)
	}

	// Everything released on worker 1; worker 0 steals each task, oldest
	// first (thieves take the top of the victim's deque).
	s = NewSched(2, DefaultPolicy(), 1)
	for _, tk := range bare {
		s.PushReady(tk, 1)
	}
	for i := range bare {
		if got := s.Pop(0); got != bare[i] {
			t.Fatalf("steal %d: got task %v", i, got)
		}
	}
	if st := s.Stats(); st.Steals != n || st.LocalPops != 0 {
		t.Fatalf("steal stats: %+v", st)
	}
	if s.Pop(0) != nil || s.Ready() != 0 {
		t.Fatal("scheduler not empty after the drain")
	}
}
