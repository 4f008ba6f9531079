package ompss

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ompssgo/internal/obs"
	"ompssgo/machine"
)

func TestTaskLoopCoversIterationSpace(t *testing.T) {
	rt := New(Workers(4))
	defer rt.Shutdown()
	var hit [103]int32
	rt.TaskLoop(103, 10, func(_ *TC, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hit[i], 1)
		}
	})
	rt.Taskwait()
	for i, h := range hit {
		if h != 1 {
			t.Fatalf("iteration %d executed %d times", i, h)
		}
	}
	st := rt.Stats()
	if st.Graph.Finished != 11 {
		t.Fatalf("chunk tasks = %d, want 11", st.Graph.Finished)
	}
}

func TestTaskLoopDegenerate(t *testing.T) {
	rt := New(Workers(2))
	defer rt.Shutdown()
	ran := int32(0)
	rt.TaskLoop(0, 10, func(*TC, int, int) { atomic.AddInt32(&ran, 1) })
	rt.TaskLoop(5, 0, func(_ *TC, lo, hi int) { atomic.AddInt32(&ran, int32(hi-lo)) })
	rt.Taskwait()
	if ran != 5 {
		t.Fatalf("ran = %d, want 5 (chunk<1 clamps to 1)", ran)
	}
}

func TestTaskLoopSimParallelizes(t *testing.T) {
	measure := func(cores int) time.Duration {
		st, err := RunSim(machine.Paper(cores), func(rt *Runtime) {
			rt.TaskLoop(32, 1, func(*TC, int, int) {}, Cost(time.Millisecond))
			rt.Taskwait()
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Makespan
	}
	if sp := float64(measure(1)) / float64(measure(8)); sp < 5 {
		t.Fatalf("taskloop speedup %.1f on 8 cores", sp)
	}
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
