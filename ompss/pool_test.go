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
// arrays of its task's lists, which stay empty and cleared.
func TestRecordResetCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(taskRec{})
	var names []string
	for i := 0; i < typ.NumField(); i++ {
		names = append(names, typ.Field(i).Name)
	}
	if got, want := fmt.Sprint(names), "[tc body bodyErr enabled t h parent ctx acc drained]"; got != want {
		t.Fatalf("taskRec fields %s, want %s: clear the new field in reset and update this list", got, want)
	}

	rt := New(Workers(1))
	defer rt.Shutdown()
	var x, y, z int
	d := rt.Register(&x)
	// Four accesses: one more than acc holds, so the access list grows.
	r := rt.main.newRec([]Clause{InOut(d), Out(&x), In(&y, &z), Label("l"), Priority(2), Cost(5)})
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
				tf, tname := f.Field(j), f.Type().Field(j).Name
				switch tname {
				case "Accesses", "Preds", "succs", "bindings":
					if tf.Len() != 0 || !allZero(tf.Slice(0, tf.Cap())) {
						t.Errorf("reset left t.%s with entries", tname)
					}
				default:
					if !tf.IsZero() {
						t.Errorf("reset left t.%s set", tname)
					}
				}
			}
		default:
			if !f.IsZero() {
				t.Errorf("reset left %s set", name)
			}
		}
	}
	if cap(r.t.Accesses) < 4 {
		t.Errorf("reset dropped the grown access list (cap %d)", cap(r.t.Accesses))
	}
	r.Recycle()
}

// allZero reports whether every element of the slice s is its zero value.
func allZero(s reflect.Value) bool {
	for i := 0; i < s.Len(); i++ {
		if !s.Index(i).IsZero() {
			return false
		}
	}
	return true
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

// TestReadOnlySessionRecyclesMidSession reads one datum from 20,000 tasks of
// one session: the datum sheds its finished readers as its list fills, so
// their records go back to the pool while the session is still open, and
// the records out and the records made stay bounded instead of growing with
// the session's task count. (Under -race sync.Pool drops what it is given
// at random, so the pool refills and only the records out are bounded.)
func TestReadOnlySessionRecyclesMidSession(t *testing.T) {
	const n = 20000
	p := poolcheck.Active()
	rt := New(Workers(2))
	defer rt.Shutdown()
	s := rt.NewSession()
	var src int
	d := s.Register(&src)
	s.Task(func(*TC) {}, d.AsOut())
	out, made := p.Outstanding(), func() int64 { r, _ := p.Made(); return r }
	base := made()
	for i := 0; i < n; i++ {
		s.Task(func(*TC) {}, d.AsIn())
	}
	s.Taskwait()
	t.Logf("%d readers: %d records out before Close, %d made", n, p.Outstanding()-out, made()-base)
	if got := p.Outstanding() - out; got > n/10 {
		t.Errorf("%d records out after %d finished readers, before Close", got, n)
	}
	if got := made() - base; !raceDetector && got > n/10 {
		t.Errorf("%d records made for %d readers: finished readers are not recycled mid-session", got, n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestKeptListsReuseCleanly grows every list of many records — six
// accesses, their preds and successors all past the inline buffers — then
// spawns one-access tasks without dependences on those records: a record
// that comes back with a kept array must show its new task alone, with no
// stale access, pred or successor from the old one in or past its length.
func TestKeptListsReuseCleanly(t *testing.T) {
	rt := New(Workers(1))
	defer rt.Shutdown()
	var a [6]*Datum
	for i := range a {
		a[i] = rt.Register(new(int))
	}
	tc := rt.Master()
	for k := 0; k < 300; k++ {
		tc.Task(func(*TC) {}, a[k%6].AsInOut(), a[(k+1)%6].AsIn(), a[(k+2)%6].AsIn(),
			a[(k+3)%6].AsIn(), a[(k+4)%6].AsIn(), a[(k+5)%6].AsIn())
	}
	rt.Taskwait()

	keys := make([]int, 300)
	var keptAcc, keptPreds int
	for i := range keys {
		tc.Task(func(tc *TC) {
			task := tc.task
			if cap(task.Accesses) > 3 {
				keptAcc++
			}
			if cap(task.Preds) > 2 {
				keptPreds++
			}
			if len(task.Accesses) != 1 || task.Accesses[0].Key != &keys[i] {
				t.Errorf("task %d reads accesses %v", i, task.Accesses)
			}
			if !allZero(reflect.ValueOf(task.Accesses[1:cap(task.Accesses)])) {
				t.Errorf("task %d: its access array holds a stale access past its length", i)
			}
			if len(task.Preds) != 0 || !allZero(reflect.ValueOf(task.Preds[:cap(task.Preds)])) {
				t.Errorf("task %d: preds %v, stale entries in %v", i, task.Preds, task.Preds[:cap(task.Preds)])
			}
			if succs := task.Succs(); len(succs) != 0 {
				t.Errorf("task %d lists %d successors", i, len(succs))
			}
		}, Out(&keys[i]))
	}
	rt.Taskwait()
	t.Logf("%d of %d records came back with a kept access array, %d with a kept pred array", keptAcc, len(keys), keptPreds)
	if !raceDetector && (keptAcc == 0 || keptPreds == 0) { // -race may drop every such record
		t.Errorf("no record came back with a kept list (%d access, %d pred arrays)", keptAcc, keptPreds)
	}
}

// TestCriticalAndTaskwaitAllocs pins the two per-call costs the record pool
// leaves: a Critical section allocates nothing, and neither do a task and
// the Taskwait that runs it — the record comes from the pool, a Task has no
// Handle, the shared ready queue reuses its ring (the task is ready at
// submission), and the wait predicate was built with the scope.
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
	if all, net := spawnAllocs(100, func() { rt.Task(body, in); rt.Taskwait() }); net != 0 || (!raceDetector && all != 0) {
		t.Errorf("Task + Taskwait: %d allocs, %d beside the pool's refills, want 0", all, net)
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
