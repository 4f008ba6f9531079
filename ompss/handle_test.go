package ompss

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ompssgo/internal/core"
	"ompssgo/machine"
)

// --- Datum handles -----------------------------------------------------------

// TestDatumClausesBuiltOnce checks that a handle's AsIn/AsOut/AsInOut
// records are built on first use, once, even under concurrent first calls,
// and that a Register that never asks for them allocates only the Datum.
func TestDatumClausesBuiltOnce(t *testing.T) {
	rt := New(Workers(1))
	defer rt.Shutdown()
	var x int
	d := rt.Register(&x)
	if a := testing.AllocsPerRun(100, func() { _ = rt.Register(&x) }); a != 1 {
		t.Errorf("Register of an interned key: %v allocs, want 1 (the Datum)", a)
	}
	got := make([]Clause, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = d.AsInOut()
		}()
	}
	wg.Wait()
	for i, c := range got {
		if c != got[0] {
			t.Fatalf("AsInOut call %d returned another record", i)
		}
	}
	if c := got[0].c; c.op != opKey || c.mode != core.InOut || c.key != d {
		t.Fatalf("AsInOut record %+v, want an InOut access on the handle", *c)
	}
	if d.AsIn() == got[0] || d.AsIn() != d.AsIn() || d.AsOut() == d.AsIn() {
		t.Fatal("each mode must have one record of its own")
	}
}

// TestMultiKeyClauseCopiesKeys checks that a clause over several keys keeps
// a copy of them: the caller's slice may change once the clause is built.
func TestMultiKeyClauseCopiesKeys(t *testing.T) {
	rt := New(Workers(1))
	defer rt.Shutdown()
	var a, b, z int
	keys := []any{&a, &b}
	c := In(keys...)
	keys[0] = &z
	r := rt.main.newRec([]Clause{c})
	defer r.t.Drop()
	if len(r.t.Accesses) != 2 || r.t.Accesses[0].Key != &a || r.t.Accesses[1].Key != &b {
		t.Fatalf("accesses %+v, want In on &a then &b", r.t.Accesses)
	}
}

func TestDatumChainOrdering(t *testing.T) {
	// A RAW chain declared purely through registered handles must
	// serialize exactly like raw keys.
	rt := New(Workers(4))
	defer rt.Shutdown()
	x := rt.Register(new(int))
	val := 0
	for i := 0; i < 50; i++ {
		i := i
		rt.Task(func(*TC) {
			if val != i {
				t.Errorf("task %d saw val=%d", i, val)
			}
			val++
		}, InOut(x))
	}
	rt.Taskwait()
	if val != 50 {
		t.Fatalf("val=%d, want 50", val)
	}
}

func TestDatumAndRawKeyInterop(t *testing.T) {
	// The compatibility layer: a handle and its raw key must resolve to
	// the same dependence record, so mixed declarations stay ordered.
	rt := New(Workers(4))
	defer rt.Shutdown()
	key := new(int)
	d := rt.Register(key)
	order := make([]int, 0, 3)
	rt.Task(func(*TC) { order = append(order, 1) }, Out(d))     // handle writer
	rt.Task(func(*TC) { order = append(order, 2) }, InOut(key)) // raw-key updater
	rt.Task(func(*TC) { order = append(order, 3) }, In(d))      // handle reader
	rt.Taskwait()
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Fatalf("mixed handle/raw-key order = %v, want [1 2 3]", order)
	}
}

func TestRegisterIsIdempotent(t *testing.T) {
	rt := New(Workers(1))
	defer rt.Shutdown()
	key := new(int)
	a, b := rt.Register(key), rt.Register(key)
	ran := 0
	rt.Task(func(*TC) { ran++ }, Out(a))
	w2 := rt.Master().Go(func(*TC) error { ran++; return nil }, Out(b))
	rt.Taskwait()
	if ran != 2 {
		t.Fatalf("ran=%d", ran)
	}
	if w2.Err() != nil {
		t.Fatal(w2.Err())
	}
	// Registering a handle returns it unchanged.
	if rt.Register(a) != a {
		t.Fatal("Register(*Datum) should be identity")
	}
}

func TestCrossRuntimeHandleFallsBackToKey(t *testing.T) {
	// A handle registered on one runtime used in clauses on another must
	// degrade to the key-based compatibility path (same records as raw
	// keys on the second runtime), not inject the first runtime's records.
	rt1 := New(Workers(1))
	defer rt1.Shutdown()
	rt2 := New(Workers(2))
	defer rt2.Shutdown()
	key := new(int)
	foreign := rt1.Register(key)
	order := make([]int, 0, 2)
	rt2.Task(func(*TC) { order = append(order, 1) }, Out(foreign)) // foreign handle
	rt2.Task(func(*TC) { order = append(order, 2) }, In(key))      // raw key
	rt2.Taskwait()
	if fmt.Sprint(order) != "[1 2]" {
		t.Fatalf("foreign handle did not order against raw key: %v", order)
	}
	// Re-registering a foreign handle binds it to this runtime.
	local := rt2.Register(foreign)
	if local == foreign {
		t.Fatal("foreign handle should be re-registered, not passed through")
	}
	if rt2.Register(local) != local {
		t.Fatal("same-runtime re-registration should be identity")
	}
}

func TestTaskwaitOnDatum(t *testing.T) {
	rt := New(Workers(2))
	defer rt.Shutdown()
	d := rt.Register(new(int))
	done := false
	rt.Task(func(*TC) { time.Sleep(time.Millisecond); done = true }, Out(d))
	rt.Master().TaskwaitOn(d)
	if !done {
		t.Fatal("TaskwaitOn(datum) returned before the writer finished")
	}
	rt.Taskwait()
}

// TestTaskwaitOnSettlesWriterHandle checks that a TaskwaitOn that returned
// leaves the writer's Handle answering: Done closed and Err the writer's
// error, on every one of many rounds that race the finishing lane.
func TestTaskwaitOnSettlesWriterHandle(t *testing.T) {
	rt := New(Workers(2))
	defer rt.Shutdown()
	d := rt.Register(new(int))
	boom := errors.New("boom")
	for i := 0; i < 2000; i++ {
		h := rt.Master().Go(func(*TC) error { return boom }, d.AsOut())
		rt.Master().TaskwaitOn(d)
		select {
		case <-h.Done():
		default:
			t.Fatalf("round %d: Done still open after TaskwaitOn returned", i)
		}
		if err := h.Err(); !errors.Is(err, boom) {
			t.Fatalf("round %d: Err = %v after TaskwaitOn returned, want %v", i, err, boom)
		}
	}
	rt.Taskwait()
}

// --- Handles and error propagation ------------------------------------------

func TestGoErrorOnHandle(t *testing.T) {
	rt := New(Workers(2))
	defer rt.Shutdown()
	boom := errors.New("boom")
	h := rt.Master().Go(func(*TC) error { return boom })
	ok := rt.Master().Go(func(*TC) error { return nil })
	rt.Taskwait()
	if !errors.Is(h.Err(), boom) {
		t.Fatalf("Handle.Err = %v, want boom", h.Err())
	}
	if ok.Err() != nil {
		t.Fatalf("successful task Err = %v", ok.Err())
	}
	select {
	case <-h.Done():
	default:
		t.Fatal("Done should be closed after Taskwait")
	}
}

func TestDiamondErrorPropagation(t *testing.T) {
	// top fails; both arms and the join are skipped, each wrapping the
	// root cause.
	rt := New(Workers(4))
	defer rt.Shutdown()
	x, y, z := new(int), new(int), new(int)
	boom := errors.New("boom")
	var armRan, joinRan atomic.Int32
	top := rt.Master().Go(func(*TC) error { return boom }, Label("top"), Out(x))
	l := rt.Master().Go(func(*TC) error { armRan.Add(1); return nil }, Label("l"), In(x), Out(y))
	r := rt.Master().Go(func(*TC) error { armRan.Add(1); return nil }, Label("r"), In(x), Out(z))
	join := rt.Master().Go(func(*TC) error { joinRan.Add(1); return nil }, Label("join"), In(y), In(z))
	rt.Taskwait()
	if !errors.Is(top.Err(), boom) {
		t.Fatalf("top err = %v", top.Err())
	}
	for name, h := range map[string]*Handle{"l": l, "r": r, "join": join} {
		err := h.Err()
		if !errors.Is(err, ErrSkipped) {
			t.Fatalf("%s err = %v, want skipped", name, err)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("%s err = %v, should unwrap to the root cause", name, err)
		}
	}
	if armRan.Load() != 0 || joinRan.Load() != 0 {
		t.Fatalf("skipped bodies ran: arms=%d join=%d", armRan.Load(), joinRan.Load())
	}
	st := rt.Stats()
	if st.Graph.Skipped != 3 || st.Graph.Failed != 4 {
		t.Fatalf("stats: skipped=%d failed=%d, want 3/4", st.Graph.Skipped, st.Graph.Failed)
	}
}

func TestTaskwaitCtxReportsFirstChildError(t *testing.T) {
	rt := New(Workers(2))
	defer rt.Shutdown()
	boom := errors.New("boom")
	rt.Master().Go(func(*TC) error { return boom })
	rt.Task(func(*TC) {})
	if err := rt.Master().TaskwaitCtx(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("TaskwaitCtx = %v, want boom", err)
	}
	// A second wait over a clean scope reports nil.
	rt.Task(func(*TC) {})
	if err := rt.Master().TaskwaitCtx(context.Background()); err != nil {
		t.Fatalf("TaskwaitCtx after clean round = %v", err)
	}
}

func TestCancellationDrainsBySkipping(t *testing.T) {
	// A long chain behind a slow head: cancelling mid-graph must skip the
	// not-yet-started tail, drain, and report the context error. Runs
	// under -race in CI (cancellation arrives from a timer goroutine).
	rt := New(Workers(2))
	defer rt.Shutdown()
	x := new(int)
	started := make(chan struct{})
	release := make(chan struct{})
	var tailRan atomic.Int32
	head := rt.Master().Go(func(*TC) error {
		close(started)
		<-release
		return nil
	}, Out(x))
	var tail []*Handle
	for i := 0; i < 32; i++ {
		tail = append(tail, rt.Master().Go(func(*TC) error { tailRan.Add(1); return nil }, InOut(x)))
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
		// Wait until the cancellation actually reached the runtime (it
		// arrives via context.AfterFunc on a separate goroutine) before
		// letting the head finish and release the tail.
		for rt.cancelCause() == nil {
			time.Sleep(50 * time.Microsecond)
		}
		release <- struct{}{}
	}()
	err := rt.Master().TaskwaitCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("TaskwaitCtx = %v, want context.Canceled", err)
	}
	if head.Err() != nil {
		t.Fatalf("head had started before the cancel; err = %v", head.Err())
	}
	if tailRan.Load() != 0 {
		t.Fatalf("cancelled tail ran %d bodies", tailRan.Load())
	}
	for _, h := range tail {
		if err := h.Err(); !errors.Is(err, ErrSkipped) || !errors.Is(err, context.Canceled) {
			t.Fatalf("tail err = %v, want skip wrapping context.Canceled", err)
		}
	}
	// The runtime stays cancelled: later spawns are skipped too.
	late := rt.Master().Go(func(*TC) error { tailRan.Add(1); return nil })
	rt.Taskwait()
	if err := late.Err(); !errors.Is(err, ErrSkipped) {
		t.Fatalf("post-cancel spawn err = %v, want skipped", err)
	}
}

func TestCommutativePanicReleasesLocks(t *testing.T) {
	// Regression: a panic inside a commutative body must not leak the
	// per-key locks (they are released via defer), or every later
	// commutative task on the key would deadlock.
	rt := New(Workers(2))
	defer rt.Shutdown()
	x, y := new(int), new(int)
	bad := rt.Master().Go(func(*TC) error { panic("boom") }, Commutative(x, y))
	after := rt.Master().Go(func(*TC) error { *x++; return nil }, Commutative(x, y))
	rt.Taskwait()
	var tp *TaskPanic
	if !errors.As(bad.Err(), &tp) {
		t.Fatalf("bad err = %v", bad.Err())
	}
	if after.Err() != nil || *x != 1 {
		t.Fatalf("commutative task after panic: err=%v x=%d", after.Err(), *x)
	}
}

func TestFinishedPredecessorErrorStillSkips(t *testing.T) {
	// Regression: a dependent submitted after its failing predecessor
	// already finished must still inherit the failure — skip-vs-run must
	// not depend on the submit/finish race.
	rt := New(Workers(2))
	defer rt.Shutdown()
	boom := errors.New("boom")
	x := rt.Register(new(int))
	h := rt.Master().Go(func(*TC) error { return boom }, Out(x))
	<-h.Done() // predecessor fully finished before the dependent submits
	ran := false
	dep := rt.Master().Go(func(*TC) error { ran = true; return nil }, In(x))
	rt.Taskwait()
	if err := dep.Err(); !errors.Is(err, ErrSkipped) || !errors.Is(err, boom) {
		t.Fatalf("dep err = %v, want skip wrapping boom", err)
	}
	if ran {
		t.Fatal("dependent of an already-failed producer ran its body")
	}
}

func TestInlineErrorReportedByTaskwaitCtx(t *testing.T) {
	rt := New(Workers(1))
	defer rt.Shutdown()
	boom := errors.New("boom")
	rt.Master().Go(func(*TC) error { return boom }, If(false))
	if err := rt.Master().TaskwaitCtx(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("TaskwaitCtx = %v, want inline error", err)
	}
}

func TestTaskwaitClosesErrorRound(t *testing.T) {
	// A plain Taskwait consumes the scope's failures too: a later
	// TaskwaitCtx must not report a stale error from the earlier round.
	rt := New(Workers(2))
	defer rt.Shutdown()
	rt.Master().Go(func(*TC) error { return errors.New("round one") })
	rt.Taskwait()
	rt.Task(func(*TC) {})
	if err := rt.Master().TaskwaitCtx(context.Background()); err != nil {
		t.Fatalf("stale scope error leaked across Taskwait: %v", err)
	}
}

func TestInlineTaskHandle(t *testing.T) {
	rt := New(Workers(1))
	defer rt.Shutdown()
	boom := errors.New("boom")
	ran := false
	h := rt.Master().Go(func(*TC) error { ran = true; return boom }, If(false))
	if !ran {
		t.Fatal("If(false) task must run undeferred")
	}
	if !errors.Is(h.Err(), boom) {
		t.Fatalf("inline handle err = %v", h.Err())
	}
	select {
	case <-h.Done():
	default:
		t.Fatal("inline handle Done must be pre-closed")
	}
	if n := rt.Stats().Graph.Submitted; n != 0 {
		t.Fatalf("%d tasks submitted: inline tasks never enter the graph", n)
	}
}

// TestTaskFailureWithoutHandle pins the failure story of a Task, which
// returns no Handle: a panicking body still reaches every error surface.
func TestTaskFailureWithoutHandle(t *testing.T) {
	isBoom := func(err error) bool {
		var tp *TaskPanic
		return errors.As(err, &tp) && tp.Label == "bad" && tp.Value == "boom"
	}
	bad := func(*TC) { panic("boom") }

	t.Run("runtime", func(t *testing.T) {
		rt := New(Workers(2))
		defer rt.Shutdown()
		x := rt.Register(new(int))
		rt.Task(bad, Label("bad"), x.AsOut())
		dep := rt.Master().Go(func(*TC) error { t.Error("a dependent of the failed Task ran"); return nil }, x.AsIn())
		if err := rt.Master().TaskwaitCtx(context.Background()); !isBoom(err) {
			t.Errorf("TaskwaitCtx = %v, want the Task's panic", err)
		}
		if err := dep.Err(); !errors.Is(err, ErrSkipped) || !isBoom(err) {
			t.Errorf("dependent's Err = %v, want a skip wrapping the Task's panic", err)
		}
		if err := rt.Err(); !isBoom(err) {
			t.Errorf("Runtime.Err = %v, want the Task's panic", err)
		}
	})

	t.Run("session close", func(t *testing.T) {
		rt := New(Workers(2))
		defer rt.Shutdown()
		s := rt.NewSession()
		var y int
		s.Task(bad, Label("bad"), Out(&y))
		dep := s.Master().Go(func(*TC) error { return nil }, In(&y))
		<-dep.Done() // both finished, and no Taskwait consumed the round
		if err := s.Close(); !isBoom(err) {
			t.Errorf("Session.Close = %v, want the Task's panic", err)
		}
		if err := dep.Err(); !errors.Is(err, ErrSkipped) || !isBoom(err) {
			t.Errorf("dependent's Err = %v, want a skip wrapping the Task's panic", err)
		}
	})

	t.Run("unobserved panic at Shutdown", func(t *testing.T) {
		// A request session's failures stay out of Runtime.Err, but an
		// unobserved panic still arms the runtime's valve.
		rt := New(Workers(2))
		s := rt.NewSession()
		s.Task(bad, Label("bad"))
		s.Taskwait()
		defer func() {
			if p, _ := recover().(error); !isBoom(p) {
				t.Errorf("Shutdown panicked with %v, want the Task's panic", p)
			}
		}()
		rt.Shutdown()
		t.Error("Shutdown did not re-panic")
	})

	t.Run("inline", func(t *testing.T) {
		rt := New(Workers(1))
		defer rt.Shutdown()
		// An If(false) body runs on the spawner's stack, so its panic is
		// the spawner's...
		func() {
			defer func() {
				if p := recover(); p != "boom" {
					t.Errorf("inline panic reached the spawner as %v, want boom", p)
				}
			}()
			rt.Task(bad, If(false))
		}()
		// ...and its skip reaches TaskwaitCtx like a deferred child's.
		s := rt.NewSession()
		cause := errors.New("request gone")
		s.Cancel(cause)
		s.Task(func(*TC) { t.Error("a cancelled inline Task ran") }, If(false))
		if err := s.Master().TaskwaitCtx(context.Background()); !errors.Is(err, ErrSkipped) || !errors.Is(err, cause) {
			t.Errorf("TaskwaitCtx = %v, want a skip wrapping %v", err, cause)
		}
		_ = s.Close()
	})
}

// --- Simulated backend -------------------------------------------------------

func TestSimGoErrorSurfacesAsRunError(t *testing.T) {
	boom := errors.New("boom")
	var dep *Handle
	_, err := RunSim(machine.Paper(4), func(rt *Runtime) {
		x := rt.Register(new(int))
		// Cost keeps the failing task in flight (in virtual time) until
		// the dependent is submitted, exercising the live-edge propagation
		// path (an already-finished predecessor would propagate through
		// its recorded outcome instead).
		rt.Master().Go(func(*TC) error { return boom }, Out(x), Label("bad"), Cost(time.Millisecond))
		dep = rt.Master().Go(func(*TC) error { return nil }, In(x))
		rt.Taskwait()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("RunSim err = %v, want boom", err)
	}
	if depErr := dep.Err(); !errors.Is(depErr, ErrSkipped) || !errors.Is(depErr, boom) {
		t.Fatalf("sim dependent err = %v", depErr)
	}
}

func TestSimDatumMatchesRawKeys(t *testing.T) {
	// The same program via handles and via raw keys must produce the same
	// makespan: the fast path changes bookkeeping, not policy.
	prog := func(useDatum bool) time.Duration {
		st, err := RunSim(machine.Paper(8), func(rt *Runtime) {
			keys := make([]int, 8)
			for i := 0; i < 8; i++ {
				var k any = &keys[i]
				if useDatum {
					k = rt.Register(&keys[i])
				}
				for j := 0; j < 4; j++ {
					rt.Task(func(*TC) {}, InOut(k), Cost(100*time.Microsecond))
				}
			}
			rt.Taskwait()
		})
		if err != nil {
			panic(err)
		}
		return st.Makespan
	}
	if a, b := prog(true), prog(false); a != b {
		// Deterministic per seed: any divergence means the datum path
		// changed scheduling behavior.
		t.Fatalf("datum vs raw-key makespan differ: %v vs %v", a, b)
	}
}

func TestRunSimCtxCancellation(t *testing.T) {
	// Cancel a simulated run mid-flight from a real timer: the graph
	// drains by skipping and the run reports the context error — and every
	// virtual thread's goroutine is gone when it does.
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int32
	_, err := RunSimCtx(ctx, machine.Paper(2), func(rt *Runtime) {
		x := rt.Register(new(int))
		for i := 0; i < 200; i++ {
			i := i
			rt.Task(func(*TC) {
				executed.Add(1)
				if i == 3 {
					cancel() // fires while the graph is mid-flight
				}
			}, InOut(x), Cost(time.Millisecond))
		}
		rt.Taskwait()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunSimCtx err = %v, want context.Canceled", err)
	}
	if n := executed.Load(); n >= 200 || n < 4 {
		t.Fatalf("executed %d bodies; cancellation should skip most of the chain", n)
	}
	// The last thread signals the end of the run before its goroutine has
	// exited, hence the retry; the verdict is the count.
	for i := 0; i < 5000 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the cancelled run, %d before it", n, base)
	}
}

// TestHandleDoneRace is the Handle-level leg of the lazy completion channel
// battery (see core's TestLazyDoneRace): goroutines ask a handle for Done()
// while a worker finishes the task, with the finish before, during and
// after the first call. Every channel handed out closes, and Err after
// <-Done() is the outcome. Meant for -race -count=10.
func TestHandleDoneRace(t *testing.T) {
	rt := New(Workers(2))
	defer rt.Shutdown()

	const callers = 6
	boom := errors.New("boom")
	for _, finish := range []string{"before", "during", "after"} {
		for iter := 0; iter < 30; iter++ {
			release := make(chan struct{})
			h := rt.Master().Go(func(*TC) error { <-release; return boom })

			var asked, wg sync.WaitGroup
			asked.Add(callers)
			ask := func() {
				for i := 0; i < callers; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						ch := h.Done()
						asked.Done()
						<-ch
						if err := h.Err(); err != boom {
							t.Errorf("%s: Err after <-Done() = %v, want %v", finish, err, boom)
						}
					}()
				}
			}
			switch finish {
			case "before":
				close(release)
				rt.Taskwait()
				ask()
			case "during":
				ask()
				close(release)
			case "after":
				ask()
				asked.Wait() // every caller holds its channel already
				close(release)
			}
			wg.Wait()
			rt.Taskwait()
			select {
			case <-h.Done():
			default:
				t.Fatalf("%s: Done still open after the task finished", finish)
			}
		}
	}
}

// TestRetainedHandleDoesNotPinChain guards the clear(ready) after Finish: a
// finished task's inline successor slot must not keep pointing at the task
// it released, or holding the first Handle of a long chain would keep every
// later record alive.
func TestRetainedHandleDoesNotPinChain(t *testing.T) {
	const n = 20000
	// The head waits for the master to wire the whole chain behind it, so
	// the run-ahead window has to cover the chain (see
	// TestBodyWaitingOnCreatorNeedsWiderWindow).
	rt := New(Workers(2), MaxInFlight(n))
	defer rt.Shutdown()
	var x int
	d := rt.Register(&x)
	body := func(*TC) { x++ }
	liveObjects := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}

	rt.Task(body, d.AsInOut())
	rt.Taskwait() // warm-up: queue nodes, deque arrays
	base := liveObjects()
	// The head holds the chain back until every link is wired behind it, so
	// each task really has its successor in the inline slot.
	gate := make(chan struct{})
	first := rt.Master().Go(func(*TC) error { <-gate; x++; return nil }, d.AsInOut())
	for i := 1; i < n; i++ {
		rt.Task(body, d.AsInOut())
	}
	close(gate)
	rt.Taskwait()
	if after := liveObjects(); after > base+n/10 {
		t.Fatalf("holding the chain head keeps %d objects alive (base %d): the chain is pinned", after, base)
	}
	if err := first.Err(); err != nil || x != n+1 {
		t.Fatalf("first.Err = %v, x = %d", err, x)
	}
}

// TestTaskRecordSizeClass keeps the spawn record within 512 bytes, the eight
// cache lines a spawn writes into a pooled record (and, when the pool has
// none, the last size class whose pointers the allocator describes with a
// bitmap in the span), and the Handle — the one object a Go spawn allocates,
// and a Task spawn does not — within 32. A field added to taskRec, TC, core.Task or core.Context has to
// fit or displace one; so does a field added to Handle.
func TestTaskRecordSizeClass(t *testing.T) {
	if size := reflect.TypeOf((*taskRec)(nil)).Elem().Size(); size > 512 {
		t.Errorf("taskRec is %d bytes, want <= 512", size)
	}
	if size := reflect.TypeOf((*Handle)(nil)).Elem().Size(); size > 32 {
		t.Errorf("Handle is %d bytes, want <= 32", size)
	}
}
