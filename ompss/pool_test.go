package ompss

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"

	"ompssgo/internal/poolcheck"
)

// TestMain runs every test of the package — the schedule and session fuzzers
// and the batteries alike — with the record pool instrumented: records are
// counted as they are handed out and taken back, and poisoned when taken
// back, so code that reads a recycled record sees ID ^0, label "recycled"
// and a body that panics.
func TestMain(m *testing.M) {
	poolcheck.Install(&poolcheck.Probe{Poison: true})
	os.Exit(m.Run())
}

// TestRecordResetCoversEveryField keeps reset in step with taskRec: a field
// added to the record must be cleared by reset, and listed here, or a pooled
// record could pin what its last task referenced. A record that carried a
// task must come out of reset zero but for its drain predicate and the
// capacity of its binding list.
func TestRecordResetCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(taskRec{})
	var names []string
	for i := 0; i < typ.NumField(); i++ {
		names = append(names, typ.Field(i).Name)
	}
	if got, want := fmt.Sprint(names), "[tc body bodyErr enabled commutative t h parent ctx acc drained]"; got != want {
		t.Fatalf("taskRec fields %s, want %s: clear the new field in reset and update this list", got, want)
	}

	rt := New(Workers(1))
	defer rt.Shutdown()
	var x int
	d := rt.Register(&x)
	r := rt.main.newRec([]Clause{InOut(d), Commutative(&x), Label("l"), Priority(2), Cost(5)})
	r.body = func(*TC) {}
	r.bodyErr = func(*TC) error { return nil }
	r.parent = &r.t
	r.ctx.NoteErr(errors.New("child failed"))
	drained := r.drained
	r.reset()
	v := reflect.ValueOf(r).Elem()
	for i := 0; i < typ.NumField(); i++ {
		f, name := v.Field(i), typ.Field(i).Name
		switch name {
		case "drained":
			if r.drained == nil || reflect.ValueOf(r.drained).Pointer() != reflect.ValueOf(drained).Pointer() {
				t.Error("reset dropped the drain predicate")
			}
		case "t":
			for j := 0; j < f.NumField(); j++ {
				if tf := f.Field(j); f.Type().Field(j).Name != "bindings" && !tf.IsZero() {
					t.Errorf("reset left t.%s set", f.Type().Field(j).Name)
				}
			}
		default:
			if !f.IsZero() {
				t.Errorf("reset left %s set", name)
			}
		}
	}
	r.Recycle()
}

// TestRetainedHandlesSurviveRecordReuse retains the Handle of every kind of
// outcome, then spawns ten times the run-ahead window of further tasks, whose
// records reuse the retained tasks' ones, and checks that each retained
// Handle still reports its own task. Run it under -race.
func TestRetainedHandlesSurviveRecordReuse(t *testing.T) {
	const workers = 2
	rt := New(Workers(workers))
	defer rt.Shutdown()
	errBody, errInline := errors.New("body failed"), errors.New("inline failed")
	cancelled := errors.New("cancelled")
	type kept struct {
		what string
		h    *Handle
		ok   func(error) bool
	}
	var hs []kept
	keep := func(what string, h *Handle, ok func(error) bool) { hs = append(hs, kept{what, h, ok}) }
	is := func(target error) func(error) bool { return func(err error) bool { return errors.Is(err, target) } }

	var x int
	d := rt.Register(&x)
	keep("success", rt.Master().Go(func(*TC) error { return nil }), func(err error) bool { return err == nil })
	keep("body error", rt.Master().Go(func(*TC) error { return errBody }, d.AsOut()), is(errBody))
	keep("skip cascade", rt.Master().Go(func(*TC) error { return nil }, d.AsIn()), func(err error) bool {
		return errors.Is(err, ErrSkipped) && errors.Is(err, errBody)
	})
	keep("panic", rt.Master().Go(func(*TC) error { panic("boom") }), func(err error) bool {
		var p *TaskPanic
		return errors.As(err, &p) && p.Value == "boom"
	})
	keep("If(false)", rt.Master().Go(func(*TC) error { return errInline }, If(false)), is(errInline))

	s := rt.NewSession()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	keep("session closed", s.Master().Go(func(*TC) error { return nil }), is(ErrSessionClosed))

	c := rt.NewSession()
	var y int
	hold := make(chan struct{})
	c.Task(func(*TC) { <-hold }, InOut(&y))
	keep("cancelled in the graph", c.Master().Go(func(*TC) error { return nil }, In(&y)), is(cancelled))
	c.Cancel(cancelled)
	close(hold)
	c.Taskwait()
	keep("cancelled at spawn", c.Master().Go(func(*TC) error { return nil }), is(cancelled))
	_ = c.Close() // reports the cancellation
	rt.Taskwait()

	later := errors.New("a later task")
	for i := 0; i < 10*runAheadPerWorker*workers; i++ {
		if i%2 == 0 {
			rt.Task(func(*TC) {}, Label("later"))
		} else {
			rt.Master().Go(func(*TC) error { return later }, Label("later"))
		}
	}
	rt.Taskwait()
	for _, k := range hs {
		select {
		case <-k.h.Done():
		default:
			t.Errorf("%s: Done still open after the task finished", k.what)
		}
		if err := k.h.Err(); !k.ok(err) {
			t.Errorf("%s: Err = %v", k.what, err)
		}
	}
}

// TestPoolBalance checks the pool's books: once a runtime has drained, the
// records it has out are exactly those its tracker's slots still hold — the
// last link of each InOut chain, one writer and its three readers, nothing
// for a task without accesses — and Shutdown gives all of them back.
// Workers(1) runs everything on this goroutine, so the counts are exact.
func TestPoolBalance(t *testing.T) {
	p := poolcheck.Active()
	base := p.Outstanding()
	rt := New(Workers(1))
	var chains [4]*Datum
	for i := range chains {
		chains[i] = rt.Register(new(int))
	}
	for i := 0; i < 400; i++ {
		rt.Task(func(*TC) {}, chains[i%len(chains)].AsInOut())
	}
	r := rt.Register(new(int))
	rt.Task(func(*TC) {}, r.AsOut())
	for i := 0; i < 3; i++ {
		rt.Task(func(*TC) {}, r.AsIn())
	}
	rt.Task(func(*TC) {})
	rt.Taskwait()
	if got, want := p.Outstanding()-base, int64(len(chains)+4); got != want {
		t.Errorf("drained runtime has %d records out, want the %d its slots hold", got, want)
	}
	rt.Shutdown()
	if got := p.Outstanding() - base; got != 0 {
		t.Errorf("%d records still out after Shutdown", got)
	}
}

// TestCriticalAndTaskwaitAllocs pins the two per-call costs the record pool
// leaves: a Critical section allocates nothing, and a task plus the Taskwait
// that runs it allocate only the global queue's node (the task is ready at
// submission) — the record comes from the pool, a Task has no Handle, and
// the wait predicate was built with the scope.
func TestCriticalAndTaskwaitAllocs(t *testing.T) {
	rt := New(Workers(1))
	defer rt.Shutdown()
	n := 0
	f := func() { n++ }
	rt.Master().Critical("c", f) // the name's first use creates its lock
	if a := testing.AllocsPerRun(100, func() { rt.Master().Critical("c", f) }); a != 0 {
		t.Errorf("Critical: %v allocs, want 0", a)
	}
	var x int
	in := rt.Register(&x).AsInOut()
	body := func(*TC) { x++ }
	if all, net := spawnAllocs(100, func() { rt.Task(body, in); rt.Taskwait() }); net != 1 || (!raceDetector && all != 1) {
		t.Errorf("Task + Taskwait: %d allocs, %d beside the pool's refills, want 1 (queue node)", all, net)
	}
}

// madeSink keeps what spawnAllocs makes to price a refill on the heap.
var madeSink any

// spawnAllocs measures f as testing.AllocsPerRun does — one warm-up run,
// then the allocations of runs runs at GOMAXPROCS 1, divided as integers —
// and returns that count twice: all allocations, and those beside the
// records and bins the pool made in the meantime. Where sync.Pool keeps what
// it is given the pool makes nothing once warm, so a spawn pin asserts both;
// under the race detector it drops a quarter at random and the pool refills,
// so the pin asserts the same count net of the refills.
func spawnAllocs(runs int, f func()) (all, net uint64) {
	p := poolcheck.Active()
	perRec := uint64(testing.AllocsPerRun(1, func() { madeSink = newTaskRec() }))
	perBin := uint64(testing.AllocsPerRun(1, func() { madeSink = new(recBin) }))
	madeSink = nil
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	recs, bins := p.Made()
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&ms)
	mallocs = ms.Mallocs - mallocs
	recs2, bins2 := p.Made()
	made := uint64(recs2-recs)*perRec + uint64(bins2-bins)*perBin
	return mallocs / uint64(runs), (mallocs - made) / uint64(runs)
}
