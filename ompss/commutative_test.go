package ompss

import (
	"errors"
	"testing"
	"time"

	"ompssgo/machine"
)

func TestCommutativeMutualExclusion(t *testing.T) {
	// Unsynchronized counter updates under Commutative must not race: the
	// runtime's per-key lock serializes the bodies.
	rt := New(Workers(4))
	defer rt.Shutdown()
	counter := 0
	for i := 0; i < 200; i++ {
		rt.Task(func(*TC) { counter++ }, Commutative(&counter))
	}
	rt.Taskwait()
	if counter != 200 {
		t.Fatalf("commutative counter = %d, want 200", counter)
	}
}

func TestCommutativeOrdersAgainstReadersAndWriters(t *testing.T) {
	rt := New(Workers(4))
	defer rt.Shutdown()
	x := new(int)
	rt.Task(func(*TC) { *x = 100 }, Out(x))
	for i := 0; i < 8; i++ {
		rt.Task(func(*TC) { *x++ }, Commutative(x))
	}
	got := new(int)
	rt.Task(func(*TC) { *got = *x }, In(x), Out(got))
	rt.Taskwait()
	if *got != 108 {
		t.Fatalf("reader after commutatives saw %d, want 108", *got)
	}
}

func TestCommutativeSimOverlapsDistinctKeys(t *testing.T) {
	// Commutative tasks on DIFFERENT keys must run in parallel; on the
	// SAME key they serialize. Compare makespans.
	run := func(sameKey bool) time.Duration {
		st, err := RunSim(machine.Paper(8), func(rt *Runtime) {
			keys := make([]int, 8)
			for i := 0; i < 8; i++ {
				k := &keys[0]
				if !sameKey {
					k = &keys[i]
				}
				rt.Task(func(tc *TC) { tc.Compute(time.Millisecond) },
					Commutative(k), Cost(time.Microsecond))
			}
			rt.Taskwait()
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Makespan
	}
	same, distinct := run(true), run(false)
	if float64(same)/float64(distinct) < 4 {
		t.Fatalf("same-key commutatives should serialize: same=%v distinct=%v", same, distinct)
	}
}

func TestTaskPanicBecomesHandleError(t *testing.T) {
	rt := New(Workers(2))
	defer rt.Shutdown()
	x := new(int)
	h := rt.Go(func(*TC) error { panic("boom") }, Label("bad"), Out(x))
	dep := rt.Go(func(*TC) error { return nil }, In(x)) // dependent of the panicker
	rt.Taskwait()
	var tp *TaskPanic
	if err := h.Err(); !errors.As(err, &tp) {
		t.Fatalf("Handle.Err = %v, want *TaskPanic", err)
	}
	if tp.Label != "bad" || tp.Value != "boom" {
		t.Fatalf("panic details: %+v", tp)
	}
	// Default SkipDependents policy: the dependent is released without
	// running, its error wraps the panic, and the graph drains.
	if err := dep.Err(); !errors.Is(err, ErrSkipped) || !errors.As(err, &tp) {
		t.Fatalf("dependent err = %v, want skip wrapping the panic", err)
	}
	if err := rt.Err(); !errors.As(err, &tp) {
		t.Fatalf("Runtime.Err = %v, want the panic", err)
	}
}

func TestUnobservedPanicResurfacesAtShutdown(t *testing.T) {
	// The safety valve: a program that never consults the error surface
	// still crashes loudly when a task panicked.
	rt := New(Workers(2))
	rt.Task(func(*TC) { panic("boom") }, Label("bad"))
	rt.Taskwait()
	defer func() {
		tp, ok := recover().(*TaskPanic)
		if !ok || tp.Value != "boom" {
			t.Fatalf("Shutdown should re-panic with *TaskPanic, got %v", tp)
		}
	}()
	rt.Shutdown()
	t.Fatal("Shutdown should have panicked")
}

func TestCommutativeOppositeOrderNoDeadlock(t *testing.T) {
	// Regression: two tasks declaring the same two commutative keys in
	// opposite clause orders used to acquire the per-key locks in
	// declaration order — a classic ABBA deadlock under concurrency. The
	// runtime now sorts acquisition by a stable per-key rank, so opposed
	// declaration orders must run to completion.
	rt := New(Workers(4))
	defer rt.Shutdown()
	x, y := new(int), new(int)
	const iters = 300
	for i := 0; i < iters; i++ {
		rt.Task(func(*TC) { *x++; *y++ }, Commutative(x, y))
		rt.Task(func(*TC) { *y++; *x++ }, Commutative(y, x))
	}
	rt.Taskwait()
	if *x != 2*iters || *y != 2*iters {
		t.Fatalf("counters x=%d y=%d, want %d each", *x, *y, 2*iters)
	}
}

func TestTaskPanicSurfacesAsSimError(t *testing.T) {
	_, err := RunSim(machine.Paper(4), func(rt *Runtime) {
		rt.Task(func(*TC) { panic("sim-boom") }, Label("bad"))
		// No explicit taskwait: the implicit shutdown drain captures it.
	})
	var tp *TaskPanic
	if !errors.As(err, &tp) {
		t.Fatalf("RunSim error = %v, want *TaskPanic", err)
	}
	if tp.Value != "sim-boom" {
		t.Fatalf("panic value %v", tp.Value)
	}
}
