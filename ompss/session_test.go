package ompss_test

// Session-scoped runtime API tests: lifecycle, admission control, tenant
// priority, per-session option overrides, cross-session isolation, and the
// stability of handles after Close. CI's race job runs this package under
// -race, so the Close/spawn/Err interleavings here double as race probes of
// the session arena.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ompssgo/internal/obs"
	"ompssgo/internal/poolcheck"
	"ompssgo/machine"
	"ompssgo/ompss"
)

// TestSessionLifecycle runs a small DAG in a request session and checks the
// accounting, the result, and that Close is an idempotent nil.
func TestSessionLifecycle(t *testing.T) {
	rt := ompss.New(ompss.Workers(2))
	defer rt.Shutdown()

	s := rt.NewSession()
	if s.ID() < 2 {
		t.Fatalf("session ID %d, want >= 2 (1 is the default session)", s.ID())
	}
	var x int
	d := s.Register(&x)
	for i := 0; i < 10; i++ {
		s.Task(func(*ompss.TC) { x++ }, ompss.InOut(d))
	}
	s.Taskwait()
	if x != 10 {
		t.Fatalf("x = %d, want 10", x)
	}
	st := s.Stats()
	if st.Submitted != 10 || st.Finished != 10 || st.Failed != 0 || st.Skipped != 0 || st.InFlight != 0 {
		t.Fatalf("stats = %+v, want 10 submitted/finished and nothing else", st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestSessionCloseSkipsPending closes a session while a dependence chain is
// still queued behind a blocked head: the head finishes, the rest are
// skipped with ErrSessionClosed, and every Handle answers stably afterwards
// — from many goroutines at once, which is the -race leg of the
// handle-after-close contract.
func TestSessionCloseSkipsPending(t *testing.T) {
	rt := ompss.New(ompss.Workers(2))
	defer rt.Shutdown()

	s := rt.NewSession()
	var x int
	release := make(chan struct{})
	started := make(chan struct{})
	head := s.Master().Go(func(*ompss.TC) error { close(started); <-release; return nil }, ompss.InOut(&x))
	var deps []*ompss.Handle
	for i := 0; i < 8; i++ {
		deps = append(deps, s.Master().Go(func(*ompss.TC) error { x++; return nil }, ompss.InOut(&x)))
	}
	// The head must be RUNNING when Close cancels, so it finishes cleanly
	// and only the queued chain is skipped.
	<-started

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	// Release the head only once Close has cancelled the pending chain and
	// is draining, or the chain could run before the cancellation lands.
	for s.CancelCause() == nil {
		time.Sleep(50 * time.Microsecond)
	}
	close(release)
	if err := <-closed; !errors.Is(err, ompss.ErrSessionClosed) {
		t.Fatalf("Close = %v, want ErrSessionClosed cause (skipped children)", err)
	}

	if err := head.Err(); err != nil {
		t.Fatalf("head.Err = %v, want nil (it ran)", err)
	}
	// Outcomes are stable and data-race-free after Close.
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, h := range deps {
				err := h.Err()
				if !errors.Is(err, ompss.ErrSessionClosed) {
					t.Errorf("dep.Err = %v, want ErrSessionClosed", err)
				}
				if !errors.Is(err, ompss.ErrSkipped) {
					t.Errorf("dep.Err = %v, want ErrSkipped match", err)
				}
				select {
				case <-h.Done():
				default:
					t.Error("Done still open after Close")
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Skipped != 8 {
		t.Fatalf("skipped = %d, want 8", st.Skipped)
	}
}

// TestSessionSpawnAfterClose checks that spawns after Close return
// pre-failed handles instead of touching the released arena.
func TestSessionSpawnAfterClose(t *testing.T) {
	rt := ompss.New(ompss.Workers(2))
	defer rt.Shutdown()

	s := rt.NewSession()
	var x int
	s.Task(func(*ompss.TC) { x = 1 }, ompss.Out(&x))
	s.Taskwait()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	h := s.Master().Go(func(*ompss.TC) error { x = 2; return nil }, ompss.Out(&x))
	if err := h.Err(); !errors.Is(err, ompss.ErrSessionClosed) {
		t.Fatalf("post-close Task err = %v, want ErrSessionClosed", err)
	}
	if x != 1 {
		t.Fatalf("x = %d: a post-close body ran", x)
	}
}

// TestSessionAdmissionBlock checks the BlockOnFull budget: with
// MaxInFlight(2), the session's in-flight count never exceeds 2 even with
// an eager spawner.
func TestSessionAdmissionBlock(t *testing.T) {
	rt := ompss.New(ompss.Workers(2))
	defer rt.Shutdown()

	s := rt.NewSession(ompss.MaxInFlight(2))
	var over atomic.Int64
	for i := 0; i < 40; i++ {
		s.Task(func(*ompss.TC) {
			if in := s.Stats().InFlight; in > 2 {
				over.Store(in)
			}
		})
	}
	s.Taskwait()
	if n := over.Load(); n != 0 {
		t.Fatalf("observed %d tasks in flight, budget 2", n)
	}
	if st := s.Stats(); st.Finished != 40 {
		t.Fatalf("finished = %d, want 40", st.Finished)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestGlobalAdmission checks the door probe a server consults before it
// opens a request's session: Runtime.WindowFull reports the run-ahead window
// full while one session's running task holds it, and not full after that
// task drains.
func TestGlobalAdmission(t *testing.T) {
	rt := ompss.New(ompss.Workers(2), ompss.MaxInFlight(1))
	defer rt.Shutdown()

	if rt.WindowFull() {
		t.Fatal("WindowFull on an idle runtime")
	}
	a := rt.NewSession()
	release := make(chan struct{})
	ran := make(chan struct{})
	a.Task(func(*ompss.TC) { close(ran); <-release })
	<-ran
	if !rt.WindowFull() {
		t.Fatal("WindowFull = false while another session's task holds the one-task window")
	}
	close(release)
	a.Taskwait()
	if rt.WindowFull() {
		t.Fatal("WindowFull = true after the holding task drained")
	}
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	unbounded := ompss.New(ompss.Workers(1), ompss.MaxInFlight(-1))
	defer unbounded.Shutdown()
	if unbounded.WindowFull() {
		t.Fatal("WindowFull on an unbounded window")
	}
}

// TestTenantPriority checks that a higher tenant class outranks a lower one
// at dispatch: with the lone worker busy, a gold-session task submitted
// after a bronze-session task still runs first.
func TestTenantPriority(t *testing.T) {
	rt := ompss.New(ompss.Workers(2)) // one dedicated worker + master
	defer rt.Shutdown()

	bronze := rt.NewSession() // class 0
	gold := rt.NewSession(ompss.Tenant(2))

	var order []string
	var mu sync.Mutex
	note := func(s string) func(*ompss.TC) error {
		return func(*ompss.TC) error {
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
			return nil
		}
	}
	gate := make(chan struct{})
	started := make(chan struct{})
	busy := bronze.Master().Go(func(*ompss.TC) error { close(started); <-gate; return nil })
	<-started
	// Both queue behind the busy worker; priority decides the pop order.
	lo := bronze.Master().Go(note("bronze"))
	hi := gold.Master().Go(note("gold"))
	close(gate)
	// Wait on handles without helping (helping would let this thread pop in
	// arbitrary order and confound the worker's priority dispatch).
	<-busy.Done()
	<-lo.Done()
	<-hi.Done()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "gold" {
		t.Fatalf("dispatch order %v, want gold first", order)
	}
	bronze.Close()
	gold.Close()
}

// TestTenantPriorityBeatsReleasedSuccessor is the other dispatch point: a
// bronze successor is released onto the worker's own deque while a gold
// task waits, ready since its submission. Gold runs first.
func TestTenantPriorityBeatsReleasedSuccessor(t *testing.T) {
	rt := ompss.New(ompss.Workers(2)) // one dedicated worker + master
	defer rt.Shutdown()

	bronze := rt.NewSession() // class 0
	gold := rt.NewSession(ompss.Tenant(2))

	var order []string
	var mu sync.Mutex
	note := func(s string) func(*ompss.TC) error {
		return func(*ompss.TC) error {
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
			return nil
		}
	}
	var x int
	gate := make(chan struct{})
	started := make(chan struct{})
	busy := bronze.Master().Go(func(*ompss.TC) error { close(started); <-gate; return nil }, ompss.InOut(&x))
	<-started
	// The bronze task waits on the busy one, so the worker releases it onto
	// its own deque; the gold task is ready at submission.
	lo := bronze.Master().Go(note("bronze"), ompss.InOut(&x))
	hi := gold.Master().Go(note("gold"))
	close(gate)
	// Wait without helping, as TestTenantPriority does.
	<-busy.Done()
	<-lo.Done()
	<-hi.Done()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "gold" {
		t.Fatalf("dispatch order %v, want gold first", order)
	}
	bronze.Close()
	gold.Close()
}

// TestCrossSessionErrorIsolation wires a dependence edge across sessions —
// session B's task depends on shared data session A's failing task wrote —
// and checks the edge orders execution but does not carry the failure: B's
// task runs.
func TestCrossSessionErrorIsolation(t *testing.T) {
	rt := ompss.New(ompss.Workers(2))
	defer rt.Shutdown()

	var shared int
	a := rt.NewSession()
	b := rt.NewSession()

	release := make(chan struct{})
	a.Master().Go(func(*ompss.TC) error {
		<-release
		return fmt.Errorf("session A failure")
	}, ompss.InOut(&shared))
	// A's own dependent must skip (same domain)...
	aDep := a.Master().Go(func(*ompss.TC) error { return nil }, ompss.InOut(&shared))
	// ...but B's dependent, wired to the same failing writer, must run.
	bRan := false
	bDep := b.Master().Go(func(*ompss.TC) error { bRan = true; return nil }, ompss.InOut(&shared))
	close(release)
	b.Taskwait()

	// Close drains session A and reports its round's failure (no Taskwait
	// first — that would consume the round and leave Close nothing).
	if err := a.Close(); err == nil {
		t.Fatal("Close a = nil, want the session's failure")
	}
	if err := aDep.Err(); !errors.Is(err, ompss.ErrSkipped) {
		t.Fatalf("same-session dependent err = %v, want skip", err)
	}
	if err := bDep.Err(); err != nil {
		t.Fatalf("cross-session dependent err = %v, want nil", err)
	}
	if !bRan {
		t.Fatal("cross-session dependent did not run")
	}
	if st := b.Stats(); st.Skipped != 0 || st.Failed != 0 {
		t.Fatalf("session B stats %+v: foreign failure leaked in", st)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close b: %v", err)
	}
}

// TestSessionCancelIsolation cancels one session mid-flight and checks the
// second session's concurrent work is untouched.
func TestSessionCancelIsolation(t *testing.T) {
	rt := ompss.New(ompss.Workers(2))
	defer rt.Shutdown()

	victim := rt.NewSession()
	bystander := rt.NewSession()

	var v, w int
	release := make(chan struct{})
	started := make(chan struct{})
	victim.Task(func(*ompss.TC) { close(started); <-release }, ompss.InOut(&v))
	for i := 0; i < 6; i++ {
		victim.Task(func(*ompss.TC) { v++ }, ompss.InOut(&v))
	}
	<-started // head is running on the worker: only the chain is skipped
	victim.Cancel(context.DeadlineExceeded)
	close(release)
	victim.Taskwait()

	for i := 0; i < 6; i++ {
		bystander.Task(func(*ompss.TC) { w++ }, ompss.InOut(&w))
	}
	bystander.Taskwait()

	if st := victim.Stats(); st.Skipped != 6 {
		t.Fatalf("victim skipped = %d, want 6", st.Skipped)
	}
	if w != 6 {
		t.Fatalf("bystander result %d, want 6", w)
	}
	if st := bystander.Stats(); st.Skipped != 0 {
		t.Fatalf("bystander skipped = %d, want 0", st.Skipped)
	}
	victim.Close()
	bystander.Close()
}

// TestSessionTaskwaitCtx checks that a session-level TaskwaitCtx timeout
// cancels that session only.
func TestSessionTaskwaitCtx(t *testing.T) {
	rt := ompss.New(ompss.Workers(2))
	defer rt.Shutdown()

	slow := rt.NewSession()
	other := rt.NewSession()
	var y int
	release := make(chan struct{})
	started := make(chan struct{})
	// The head runs on the dedicated worker (started proves it) and the
	// chain queues behind its InOut — so the master's help-first TaskwaitCtx
	// finds nothing runnable and can only watch the context expire.
	slow.Task(func(*ompss.TC) { close(started); <-release }, ompss.InOut(&y))
	for i := 0; i < 4; i++ {
		slow.Task(func(*ompss.TC) { y++ }, ompss.InOut(&y))
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	// TaskwaitCtx never abandons a running child: it cancels the pending
	// chain but still waits for the head. Release the head once the context
	// has expired so the wait can complete and report the cancellation.
	go func() { <-ctx.Done(); close(release) }()
	if err := slow.Master().TaskwaitCtx(ctx); err == nil {
		t.Fatal("TaskwaitCtx = nil, want cancellation")
	}

	ran := false
	other.Task(func(*ompss.TC) { ran = true })
	other.Taskwait()
	if !ran {
		t.Fatal("other session's task skipped after foreign TaskwaitCtx cancellation")
	}
	other.Close()
}

// TestSessionSkipsDependents checks that a session task depending on a
// failed one is skipped, not run.
func TestSessionSkipsDependents(t *testing.T) {
	rt := ompss.New(ompss.Workers(2))
	defer rt.Shutdown()

	skip := rt.NewSession()
	var x int
	ran := false
	skip.Master().Go(func(*ompss.TC) error { return fmt.Errorf("boom") }, ompss.InOut(&x))
	h := skip.Master().Go(func(*ompss.TC) error { ran = true; return nil }, ompss.InOut(&x))
	skip.Taskwait()
	if ran || !errors.Is(h.Err(), ompss.ErrSkipped) {
		t.Fatalf("the dependent of a failed task was not skipped (ran=%v err=%v)", ran, h.Err())
	}
	skip.Close()
}

// TestSessionRenamingOverride checks that a session cannot override the
// runtime's renaming setting: NewSession ignores WithTuning, so a
// Tuning{Renaming: On} session on a renaming-off runtime renames nothing,
// and a Tuning{Renaming: Off} session on a renaming-on runtime still renames.
func TestSessionRenamingOverride(t *testing.T) {
	warChain := func(t *testing.T, api ompss.API) {
		t.Helper()
		var cell int64
		d := api.Register(&cell).EnableRenaming(nil,
			func() any { return new(int64) },
			func(dst, src any) { *dst.(*int64) = *src.(*int64) })
		// Readers hold until every round is submitted, so each later writer
		// meets unfinished readers (the WAR a rename removes) whatever the
		// host's timing.
		submitted := make(chan struct{})
		for round := 0; round < 6; round++ {
			api.Master().Go(func(tc *ompss.TC) error {
				*tc.Data(d).(*int64)++
				return nil
			}, ompss.InOut(d))
			for r := 0; r < 2; r++ {
				api.Master().Go(func(tc *ompss.TC) error {
					<-submitted
					_ = *tc.Data(d).(*int64)
					return nil
				}, ompss.In(d))
			}
		}
		close(submitted)
		api.Taskwait()
		if cell != 6 {
			t.Fatalf("final cell %d, want 6", cell)
		}
	}

	t.Run("force-on", func(t *testing.T) {
		rt := ompss.New(ompss.Workers(2)) // renaming off by default
		defer rt.Shutdown()
		s := rt.NewSession(ompss.WithTuning(ompss.Tuning{Renaming: ompss.On}))
		warChain(t, s)
		if n := rt.Stats().Graph.Renamed; n != 0 {
			t.Fatalf("session on a renaming-off runtime renamed %d times", n)
		}
		s.Close()
	})
	t.Run("force-off", func(t *testing.T) {
		rt := ompss.New(ompss.Workers(2), ompss.WithTuning(ompss.Tuning{Renaming: ompss.On}))
		defer rt.Shutdown()
		s := rt.NewSession(ompss.WithTuning(ompss.Tuning{Renaming: ompss.Off}))
		warChain(t, s)
		if n := rt.Stats().Graph.Renamed; n == 0 {
			t.Fatal("session on a renaming-on runtime renamed nothing")
		}
		s.Close()
	})
}

// TestSessionObserveMute checks Observe(nil) muting: a muted session's
// tasks appear nowhere in the runtime trace while a loud session's do.
func TestSessionObserveMute(t *testing.T) {
	rec := obs.NewRecorder()
	rt := ompss.New(ompss.Workers(2), ompss.Observe(rec))
	defer rt.Shutdown()

	loud := rt.NewSession()
	muted := rt.NewSession(ompss.Observe(nil))
	for i := 0; i < 5; i++ {
		loud.Task(func(*ompss.TC) {})
		muted.Task(func(*ompss.TC) {})
	}
	loud.Taskwait()
	muted.Taskwait()
	loudID, mutedID := loud.ID(), muted.ID()
	loud.Close()
	muted.Close()

	tr := rec.Snapshot()
	ids, counts := tr.Sessions()
	seen := map[uint64]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	if !seen[loudID] || counts[loudID] != 5 {
		t.Fatalf("loud session %d: %d tasks in trace, want 5 (sessions %v)", loudID, counts[loudID], ids)
	}
	if seen[mutedID] {
		t.Fatalf("muted session %d leaked events into the trace", mutedID)
	}
	sub := tr.FilterSession(loudID)
	if got := len(sub.Events); got == 0 {
		t.Fatal("FilterSession dropped everything")
	}
}

// TestSessionsSim runs sessions on the simulated backend: two interleaved
// healthy sessions plus a poisoned one, single-threaded on the master
// virtual thread, with full isolation accounting.
func TestSessionsSim(t *testing.T) {
	var aGot, bGot int
	var aStats, bStats, pStats ompss.SessionStats
	_, err := ompss.RunSim(machine.Paper(4), func(rt *ompss.Runtime) {
		a := rt.NewSession()
		b := rt.NewSession(ompss.Tenant(1))
		p := rt.NewSession()
		var av, bv, pv int
		var ph []*ompss.Handle
		ph = append(ph, p.Master().Go(func(*ompss.TC) error {
			return fmt.Errorf("poison")
		}, ompss.InOut(&pv)))
		for i := 0; i < 8; i++ {
			a.Task(func(*ompss.TC) { av++ }, ompss.InOut(&av))
			b.Task(func(*ompss.TC) { bv++ }, ompss.InOut(&bv))
			ph = append(ph, p.Master().Go(func(*ompss.TC) error { pv++; return nil }, ompss.InOut(&pv)))
		}
		a.Taskwait()
		b.Taskwait()
		aGot, bGot = av, bv
		aStats, bStats = a.Stats(), b.Stats()
		if err := a.Close(); err != nil {
			t.Errorf("Close a: %v", err)
		}
		if err := b.Close(); err != nil {
			t.Errorf("Close b: %v", err)
		}
		// TaskwaitCtx drains the poison session — the head is guaranteed to
		// run and fail, cascading skips through the chain — and reports the
		// round's failure (plain Taskwait would consume the round silently).
		if err := p.Master().TaskwaitCtx(context.Background()); err == nil {
			t.Error("poison session drained without reporting its failure")
		}
		pStats = p.Stats()
		if err := p.Close(); err != nil {
			t.Errorf("Close p after consumed round = %v, want nil", err)
		}
	})
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	if aGot != 8 || bGot != 8 {
		t.Fatalf("a=%d b=%d, want 8 8", aGot, bGot)
	}
	if aStats.Skipped != 0 || bStats.Skipped != 0 {
		t.Fatalf("healthy sessions skipped a=%d b=%d, want 0", aStats.Skipped, bStats.Skipped)
	}
	if pStats.Skipped != 8 {
		t.Fatalf("poison session skipped = %d, want 8", pStats.Skipped)
	}
}

// TestConcurrentSessionChurn opens, runs, and closes many sessions from
// concurrent goroutines against one runtime — the server's steady state —
// checking every session's private result and accounting. Run under -race
// this exercises the arena release against concurrent spawns.
func TestConcurrentSessionChurn(t *testing.T) {
	rt := ompss.New(ompss.Workers(4))
	defer rt.Shutdown()

	const goroutines = 8
	const rounds = 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s := rt.NewSession(ompss.MaxInFlight(8))
				var x int
				d := s.Register(&x)
				for i := 0; i < 12; i++ {
					s.Task(func(*ompss.TC) { x++ }, ompss.InOut(d))
				}
				s.Taskwait()
				if x != 12 {
					t.Errorf("session result %d, want 12", x)
				}
				if st := s.Stats(); st.Skipped != 0 || st.Failed != 0 {
					t.Errorf("healthy churn session stats %+v", st)
				}
				if err := s.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestHandleOutlivesSession keeps handles across Close: a handle is a view
// of its own task record, which is never recycled, so Err, TaskID and Done
// keep answering with the task's final outcome — from several goroutines,
// and however many later sessions churn through the runtime.
func TestHandleOutlivesSession(t *testing.T) {
	rt := ompss.New(ompss.Workers(2))
	defer rt.Shutdown()

	boom := errors.New("boom")
	s := rt.NewSession()
	var x int
	d := s.Register(&x)
	ok := s.Master().Go(func(*ompss.TC) error { x++; return nil }, d.AsInOut())
	bad := s.Master().Go(func(*ompss.TC) error { return boom }, d.AsInOut())
	dep := s.Master().Go(func(*ompss.TC) error { x++; return nil }, d.AsInOut())
	if err := s.Master().TaskwaitCtx(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("TaskwaitCtx = %v, want the failing child's error", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after a drained round: %v", err)
	}

	check := func() {
		if err := ok.Err(); err != nil {
			t.Errorf("ok.Err = %v", err)
		}
		if err := bad.Err(); err != boom {
			t.Errorf("bad.Err = %v, want %v", err, boom)
		}
		if err := dep.Err(); !errors.Is(err, ompss.ErrSkipped) || !errors.Is(err, boom) {
			t.Errorf("dep.Err = %v, want a skip caused by %v", err, boom)
		}
		for i, h := range []*ompss.Handle{ok, bad, dep} {
			select {
			case <-h.Done():
			default:
				t.Errorf("handle %d: Done still open after Close", i)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check()
		}()
	}
	// Later sessions get fresh records; the kept handles must not notice.
	for i := 0; i < 50; i++ {
		s2 := rt.NewSession()
		var y int
		for j := 0; j < 8; j++ {
			s2.Task(func(*ompss.TC) { y++ }, ompss.InOut(&y))
		}
		s2.Taskwait()
		if err := s2.Close(); err != nil {
			t.Fatalf("churn Close: %v", err)
		}
	}
	wg.Wait()
	check()
}

// heapObjects reads the live object count after two collections (the second
// sweeps what the first one's finalizers and sweep left behind).
func heapObjects() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapObjects
}

// TestSessionChurnReturnsMemory asserts that open → spawn → wait → Close
// cycles with no handle retained leave nothing behind: no dependence records,
// no task records out of the pool (Close releases the session's datums, whose
// slots held the last ones), and no garbage the collector cannot take — 2,000
// cycles of 50 tasks keep the live object count within a small fixed margin.
func TestSessionChurnReturnsMemory(t *testing.T) {
	rt := ompss.New(ompss.Workers(2))
	defer rt.Shutdown()
	pool := poolcheck.Active()
	baseOut := pool.Outstanding() // nothing in flight yet

	cycle := func() {
		s := rt.NewSession()
		var x int
		d := s.Register(&x)
		for i := 0; i < 50; i++ {
			s.Task(func(*ompss.TC) { x++ }, d.AsInOut())
		}
		if err := s.Master().TaskwaitCtx(context.Background()); err != nil {
			t.Fatalf("TaskwaitCtx: %v", err)
		}
		if x != 50 {
			t.Fatalf("x = %d, want 50", x)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	// Warm-up: queue growth and lazily built shard state are not a leak.
	for i := 0; i < 50; i++ {
		cycle()
	}
	baseRecords := rt.DepRecords()
	base := heapObjects()
	for i := 0; i < 2000; i++ {
		cycle()
	}
	after := heapObjects()
	if n := rt.DepRecords(); n != baseRecords {
		t.Fatalf("dependence records grew across churn: %d -> %d", baseRecords, n)
	}
	if n := pool.Await(baseOut); n != baseOut {
		t.Fatalf("task records out of the pool grew across churn: %d -> %d", baseOut, n)
	}
	const margin = 500 // objects; one leaked record per cycle would be 2,000
	if after > base+margin {
		t.Fatalf("heap objects grew across churn: %d -> %d (margin %d)", base, after, margin)
	}
	t.Logf("heap objects %d -> %d over 2000 sessions / 100000 tasks", base, after)
}

// TestSessionCloseReleasesOwnRecords pins the ownership contract of the
// session arena: Close drops exactly the dependence records the session
// created — K, registered by the session, and K2, first touched by one of
// its raw-key clauses — and leaves R, which the runtime registered before
// the session touched it, with its record and its ordering history: a
// runtime writer on R's handle still pending across the Close orders a later
// raw-key reader of R. Workers(1) runs nothing before the final wait, and
// the reader's priority would put it first were it not ordered.
func TestSessionCloseReleasesOwnRecords(t *testing.T) {
	rt := ompss.New(ompss.Workers(1))
	defer rt.Shutdown()
	var r, k, k2 int
	rd := rt.Register(&r)
	base := rt.DepRecords()

	s := rt.NewSession()
	kd := s.Register(&k)
	s.Task(func(*ompss.TC) { k = r + 1 }, kd.AsOut(), ompss.In(&r))
	s.Task(func(*ompss.TC) { k2 = k }, ompss.In(kd), ompss.Out(&k2))
	s.Taskwait()
	if n := rt.DepRecords(); n != base+2 {
		t.Fatalf("DepRecords = %d with the session open, want %d (+K, +K2)", n, base+2)
	}

	var order []string
	rt.Task(func(*ompss.TC) { order = append(order, "writer") }, rd.AsOut())
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := rt.DepRecords(); n != base {
		t.Fatalf("DepRecords = %d after Close, want the baseline %d", n, base)
	}
	rt.Task(func(*ompss.TC) { order = append(order, "reader") }, ompss.In(&r), ompss.Priority(1))
	rt.Taskwait()
	if fmt.Sprint(order) != "[writer reader]" {
		t.Fatalf("order %v: the raw-key reader of R did not wait for the writer on R's handle", order)
	}
	if k != 1 || k2 != 1 {
		t.Fatalf("k=%d k2=%d, want 1 1", k, k2)
	}
}
