package ompss

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"ompssgo/internal/obs"
	"ompssgo/machine"
)

func TestNativeBasicTaskwait(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		rt := New(Workers(workers))
		var ran int32
		for i := 0; i < 20; i++ {
			rt.Task(func(*TC) { atomic.AddInt32(&ran, 1) })
		}
		rt.Taskwait()
		if got := atomic.LoadInt32(&ran); got != 20 {
			t.Fatalf("workers=%d: ran %d tasks, want 20", workers, got)
		}
		rt.Shutdown()
	}
}

func TestNativeDataflowOrdering(t *testing.T) {
	rt := New(Workers(4))
	defer rt.Shutdown()
	x := new(int)
	y := new(int)
	rt.Task(func(*TC) { *x = 21 }, Out(x))
	rt.Task(func(*TC) { *y = *x * 2 }, In(x), Out(y))
	rt.Task(func(*TC) { *y++ }, InOut(y))
	rt.Taskwait()
	if *y != 43 {
		t.Fatalf("dataflow result = %d, want 43", *y)
	}
}

func TestNativeChainThroughWorkers(t *testing.T) {
	rt := New(Workers(4))
	defer rt.Shutdown()
	acc := new(int)
	for i := 1; i <= 50; i++ {
		i := i
		rt.Task(func(*TC) { *acc += i }, InOut(acc))
	}
	rt.Taskwait()
	if *acc != 50*51/2 {
		t.Fatalf("chain sum = %d, want %d", *acc, 50*51/2)
	}
}

func TestNativeTaskwaitOn(t *testing.T) {
	rt := New(Workers(2))
	defer rt.Shutdown()
	slow := new(int)
	fast := new(int)
	rt.Task(func(*TC) { time.Sleep(5 * time.Millisecond); *slow = 1 }, Out(slow))
	rt.Task(func(*TC) { *fast = 1 }, Out(fast))
	rt.Master().TaskwaitOn(fast)
	if *fast != 1 {
		t.Fatal("taskwait on(fast) returned before the fast task finished")
	}
	rt.Master().TaskwaitOn(slow)
	if *slow != 1 {
		t.Fatal("taskwait on(slow) returned before the slow task finished")
	}
}

func TestNativeTaskwaitOnUntracked(t *testing.T) {
	rt := New(Workers(2))
	defer rt.Shutdown()
	rt.Master().TaskwaitOn(new(int)) // never written: must not hang
}

func TestNativeTaskwaitOnRegion(t *testing.T) {
	// Each half of one array is its own registered handle, so waiting on
	// the fast half must not require the slow one.
	rt := New(Workers(2))
	defer rt.Shutdown()
	data := make([]int, 32)
	lower, upper := rt.Register(&data[0]), rt.Register(&data[16])
	rt.Task(func(*TC) {
		time.Sleep(2 * time.Millisecond)
		for i := 0; i < 16; i++ {
			data[i] = 1
		}
	}, Out(lower))
	rt.Task(func(*TC) {
		for i := 16; i < 32; i++ {
			data[i] = 2
		}
	}, Out(upper))
	rt.Master().TaskwaitOn(upper)
	if data[31] != 2 {
		t.Fatal("taskwait on the upper half returned before its writer finished")
	}
	rt.Master().TaskwaitOn(lower, upper) // now both
	if data[0] != 1 {
		t.Fatal("taskwait on both halves missed the first writer")
	}
}

func TestNativeBlockedStencil(t *testing.T) {
	// Blocked in-place update over one registered handle per block: each
	// block writes its own block and reads its left neighbour's last element
	// (declared as In on that block), so the first wave runs in parallel and
	// the second chains left to right.
	rt := New(Workers(4))
	defer rt.Shutdown()
	const n, bs = 64, 16
	data := make([]int, n)
	blocks := make([]*Datum, n/bs)
	for b := range blocks {
		blocks[b] = rt.Register(&data[b*bs])
	}
	for b := range blocks {
		lo, hi := b*bs, (b+1)*bs
		rt.Task(func(*TC) {
			for i := lo; i < hi; i++ {
				data[i] = i
			}
		}, Out(blocks[b]))
	}
	for b := range blocks {
		lo, hi := b*bs, (b+1)*bs
		clauses := []Clause{InOut(blocks[b])}
		if b > 0 {
			clauses = append(clauses, In(blocks[b-1]))
		}
		rt.Task(func(*TC) {
			left := 0
			if lo > 0 {
				left = data[lo-1]
			}
			for i := lo; i < hi; i++ {
				data[i] += left
			}
		}, clauses...)
	}
	rt.Taskwait()
	// Verify against the sequential recurrence.
	want := make([]int, n)
	for i := range want {
		want[i] = i
	}
	for lo := 0; lo < n; lo += bs {
		left := 0
		if lo > 0 {
			left = want[lo-1]
		}
		for i := lo; i < lo+bs; i++ {
			want[i] += left
		}
	}
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("data[%d] = %d, want %d", i, data[i], want[i])
		}
	}
}

func TestNativeCriticalMutualExclusion(t *testing.T) {
	rt := New(Workers(4))
	defer rt.Shutdown()
	counter := 0
	for i := 0; i < 100; i++ {
		rt.Task(func(tc *TC) {
			tc.Critical("ctr", func() { counter++ })
		})
	}
	rt.Taskwait()
	if counter != 100 {
		t.Fatalf("critical counter = %d, want 100", counter)
	}
}

// TestCriticalPanicReleasesLock pins the fix for the h264dec pipeline hang:
// a body that panics inside a named critical section becomes a *TaskPanic,
// and the critical lock must be released on the way out — a later task
// entering the same section must proceed, not deadlock. Covers both
// backends.
func TestCriticalPanicReleasesLock(t *testing.T) {
	run := func(rt *Runtime) (sawSecond bool) {
		h := rt.Master().Go(func(tc *TC) error {
			tc.Critical("leaky", func() { panic("boom inside critical") })
			return nil
		})
		// Spawned once the panicking task has finished, and depending on
		// nothing, so the failure does not skip it.
		rt.Taskwait()
		rt.Task(func(tc *TC) {
			tc.Critical("leaky", func() { sawSecond = true })
		})
		rt.Taskwait()
		if err := h.Err(); err == nil {
			t.Error("panicking critical body should surface as the task's error")
		}
		return sawSecond
	}
	rt := New(Workers(2))
	if !run(rt) {
		t.Fatal("native: second critical section never ran — lock leaked by the panic")
	}
	rt.Shutdown()

	var simSecond bool
	_, err := RunSim(machine.Paper(2), func(rt *Runtime) {
		simSecond = run(rt)
	})
	if err == nil {
		t.Error("sim should report the task panic")
	}
	if !simSecond {
		t.Fatal("sim: second critical section never ran — lock leaked by the panic")
	}
}

func TestNativeNestedTasks(t *testing.T) {
	rt := New(Workers(4))
	defer rt.Shutdown()
	var leaves int32
	rt.Task(func(tc *TC) {
		for i := 0; i < 5; i++ {
			tc.Task(func(*TC) { atomic.AddInt32(&leaves, 1) })
		}
		tc.Taskwait() // waits for the nested children only
		if n := atomic.LoadInt32(&leaves); n != 5 {
			t.Errorf("nested taskwait saw %d leaves, want 5", n)
		}
	})
	rt.Taskwait()
	if leaves != 5 {
		t.Fatalf("leaves = %d, want 5", leaves)
	}
}

func TestNativeIfFalseRunsInline(t *testing.T) {
	rt := New(Workers(2))
	defer rt.Shutdown()
	ran := false
	x := new(int)
	rt.Task(func(*TC) { ran = true; *x = 7 }, Out(x), If(false))
	// Undeferred: already executed, before any taskwait.
	if !ran || *x != 7 {
		t.Fatal("If(false) task should execute inline at spawn")
	}
	if st := rt.Stats(); st.Graph.Submitted != 0 {
		t.Fatalf("inline task should not enter the graph: %+v", st.Graph)
	}
}

func TestNativeBlockingMode(t *testing.T) {
	rt := New(Workers(4), Wait(Blocking))
	var sum int32
	x := new(int)
	rt.Task(func(*TC) { atomic.AddInt32(&sum, 1); *x = 1 }, Out(x))
	for i := 0; i < 30; i++ {
		rt.Task(func(*TC) { atomic.AddInt32(&sum, 1) }, In(x))
	}
	rt.Taskwait()
	if sum != 31 {
		t.Fatalf("blocking mode ran %d tasks, want 31", sum)
	}
	// Shut down with work outstanding: the drain is the same help-first wait
	// as Taskwait, so between tasks the master parks on the gate and the
	// finish that empties the graph wakes it. A chain keeps all but one
	// thread without work at any moment.
	for i := 0; i < 50; i++ {
		rt.Task(func(*TC) { sum++ }, InOut(&sum))
	}
	rt.Shutdown()
	if sum != 81 {
		t.Fatalf("shutdown drained to %d tasks, want 81", sum)
	}
}

func TestNativeShutdownDrainsAndIsIdempotent(t *testing.T) {
	rt := New(Workers(2))
	var ran int32
	for i := 0; i < 10; i++ {
		rt.Task(func(*TC) { atomic.AddInt32(&ran, 1) })
	}
	rt.Shutdown() // implicit end-of-program barrier
	rt.Shutdown()
	if ran != 10 {
		t.Fatalf("shutdown drained %d, want 10", ran)
	}
}

func TestNativeStats(t *testing.T) {
	rt := New(Workers(2))
	defer rt.Shutdown()
	x := new(int)
	// Hold the producer until the reader is submitted, so the RAW edge is
	// deterministically wired (a fast worker could otherwise finish the
	// producer before the reader's submission even looks for it).
	gate := make(chan struct{})
	rt.Task(func(*TC) { <-gate; *x = 1 }, Out(x))
	rt.Task(func(*TC) { _ = *x }, In(x))
	close(gate)
	rt.Taskwait()
	st := rt.Stats()
	if st.Graph.Submitted != 2 || st.Graph.Finished != 2 || st.Graph.Edges != 1 {
		t.Fatalf("stats = %+v", st.Graph)
	}
}

func TestNativePriorityAndLabelAccepted(t *testing.T) {
	rt := New(Workers(2))
	defer rt.Shutdown()
	done := false
	rt.Task(func(*TC) { done = true }, Priority(3), Label("prio"), Cost(time.Microsecond))
	rt.Taskwait()
	if !done {
		t.Fatal("priority task did not run")
	}
}

// TestNativeSequentialEquivalenceProperty checks the model's core promise on
// the public API: any program of tasks annotated with faithful dependence
// clauses computes the same result as its sequential elision.
func TestNativeSequentialEquivalenceProperty(t *testing.T) {
	type op struct {
		dst, src int
		k        int
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nvars = 4
		nops := rng.Intn(30) + 5
		ops := make([]op, nops)
		for i := range ops {
			ops[i] = op{dst: rng.Intn(nvars), src: rng.Intn(nvars), k: rng.Intn(7)}
		}
		run := func(parallel bool) [nvars]int {
			var vars [nvars]int
			ptrs := [nvars]*int{}
			for i := range vars {
				vars[i] = i + 1
				ptrs[i] = &vars[i]
			}
			if parallel {
				rt := New(Workers(3), Seed(seed))
				for _, o := range ops {
					o := o
					rt.Task(func(*TC) { *ptrs[o.dst] += *ptrs[o.src] * o.k },
						In(ptrs[o.src]), InOut(ptrs[o.dst]))
				}
				rt.Taskwait()
				rt.Shutdown()
			} else {
				for _, o := range ops {
					vars[o.dst] += vars[o.src] * o.k
				}
			}
			return vars
		}
		return run(true) == run(false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTracerRecordsLifecycle(t *testing.T) {
	rec := obs.NewRecorder()
	rt := New(Workers(2), Observe(rec))
	x := new(int)
	// Gate the producer so the consume edge is deterministically wired.
	gate := make(chan struct{})
	rt.Task(func(*TC) { <-gate; *x = 1 }, Out(x), Label("produce"))
	rt.Task(func(*TC) { _ = *x }, In(x), Label("consume"))
	close(gate)
	rt.Taskwait()
	rt.Shutdown()
	tr := rec.Snapshot()
	if a := obs.Analyze(tr); a.Submitted != 2 || a.Edges != 1 {
		t.Fatalf("trace has %d tasks and %d edges, want 2 and 1", a.Submitted, a.Edges)
	}
	var starts, ends int
	for _, ev := range tr.Events {
		switch ev.Kind {
		case obs.EvStart:
			starts++
		case obs.EvEnd:
			ends++
		}
	}
	if starts != 2 || ends != 2 {
		t.Fatalf("starts=%d ends=%d, want 2,2", starts, ends)
	}
}

func TestTracerDOT(t *testing.T) {
	rec := obs.NewRecorder()
	rt := New(Workers(2), Observe(rec))
	x := new(int)
	// Gate A so the A->B edge is deterministically wired.
	gate := make(chan struct{})
	rt.Task(func(*TC) { <-gate; *x = 1 }, Out(x), Label("A"))
	rt.Task(func(*TC) { _ = *x }, In(x), Label("B"))
	close(gate)
	rt.Taskwait()
	rt.Shutdown()
	var buf testWriter
	if err := obs.WriteDOT(&buf, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"digraph taskgraph", `label="A"`, `label="B"`, "->"} {
		if !contains(s, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, s)
		}
	}
}

type testWriter struct{ b []byte }

func (w *testWriter) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }
func (w *testWriter) String() string              { return string(w.b) }

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestWriteTimeline(t *testing.T) {
	rec := obs.NewRecorder()
	rt := New(Workers(2), Observe(rec))
	x := new(int)
	rt.Task(func(*TC) { *x = 1 }, Out(x), Label("produce"))
	rt.Task(func(*TC) { _ = *x }, In(x), Label("consume"))
	rt.Taskwait()
	rt.Shutdown()
	var sb strings.Builder
	if err := obs.WriteParaverCSV(&sb, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if n := strings.Count(out, "\nrunning,"); n != 2 {
		t.Fatalf("timeline has %d running rows, want one per task:\n%s", n, out)
	}
	if !strings.HasPrefix(out, "record,worker,task,label") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, `"produce"`) || !strings.Contains(out, `"consume"`) {
		t.Fatalf("labels missing:\n%s", out)
	}
}
