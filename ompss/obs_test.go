package ompss_test

// Observability-under-execution tests: the exact-numbers contract of the
// analyzer on a hand-built DAG timed by the simulator's virtual clock, and
// the recorder attached to the schedule-fuzz battery and the native stress
// loads (CI's race job runs this file, so the record path's slot-latch
// discipline is -race-verified under real contention, wraparound included).

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ompssgo/internal/obs"
	"ompssgo/machine"
	"ompssgo/ompss"
)

// simDiamond runs the four-task diamond with known Cost clauses on the
// simulated machine and returns the recorded trace. Virtual time makes
// every duration deterministic; the left branch (5ms) dominates the right
// (1ms) by far more than any runtime overhead, so the critical path is
// known a priori.
func simDiamond(t *testing.T) *obs.Trace {
	t.Helper()
	rec := obs.NewRecorder()
	x, y, z := new(int), new(int), new(int)
	_, err := ompss.RunSim(machine.Paper(4), func(rt *ompss.Runtime) {
		dx, dy, dz := rt.Register(x), rt.Register(y), rt.Register(z)
		rt.Task(func(*ompss.TC) { *x = 1 }, ompss.Out(dx),
			ompss.Cost(time.Millisecond), ompss.Label("top"))
		rt.Task(func(*ompss.TC) { *y = *x + 1 }, ompss.In(dx), ompss.Out(dy),
			ompss.Cost(5*time.Millisecond), ompss.Label("left"))
		rt.Task(func(*ompss.TC) { *z = *x + 2 }, ompss.In(dx), ompss.Out(dz),
			ompss.Cost(time.Millisecond), ompss.Label("right"))
		rt.Task(func(*ompss.TC) { *x = *y + *z }, ompss.In(dy), ompss.In(dz),
			ompss.Cost(2*time.Millisecond), ompss.Label("bottom"))
		rt.Taskwait()
	}, ompss.Observe(rec))
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}
	if *x != 5 {
		t.Fatalf("diamond computed %d, want 5", *x)
	}
	return rec.Snapshot()
}

// TestObserveSimCriticalPathExact asserts the analyzer's critical-path and
// parallelism numbers exactly on the hand-built diamond under virtual
// time: the chain is top→left→bottom, its length is exactly the sum of
// those three tasks' recorded execution times, the off-path task's slack
// is exact, and the parallelism profile integrates exactly to the span.
func TestObserveSimCriticalPathExact(t *testing.T) {
	tr := simDiamond(t)
	if tr.TotalDropped() != 0 {
		t.Fatalf("diamond overflowed the rings: %d dropped", tr.TotalDropped())
	}
	a := obs.Analyze(tr)
	if a.Submitted != 4 || a.Executed != 4 || a.Edges != 4 {
		t.Fatalf("counts: submitted=%d executed=%d edges=%d, want 4/4/4", a.Submitted, a.Executed, a.Edges)
	}
	byLabel := map[string]*obs.TaskInfo{}
	for _, ti := range a.Tasks {
		byLabel[ti.Label] = ti
	}
	for _, l := range []string{"top", "left", "bottom", "right"} {
		if byLabel[l] == nil {
			t.Fatalf("task %q missing from trace", l)
		}
	}
	// Declared costs are a lower bound on the virtual execution times.
	if got := byLabel["left"].Exec; got < int64(5*time.Millisecond) {
		t.Fatalf("left exec %v < its declared 5ms cost", time.Duration(got))
	}
	// Critical path: exactly the top→left→bottom chain...
	var chain []string
	for _, ct := range a.CPTasks {
		chain = append(chain, ct.Label)
	}
	if fmt.Sprint(chain) != "[top left bottom]" {
		t.Fatalf("critical-path chain %v, want [top left bottom]", chain)
	}
	// ... with exactly the sum of those tasks' execution times.
	wantCP := byLabel["top"].Exec + byLabel["left"].Exec + byLabel["bottom"].Exec
	if a.CPLen != wantCP {
		t.Fatalf("critical path %d ns, want exactly %d", a.CPLen, wantCP)
	}
	// Off-path slack is exact: the right branch can grow by the length
	// difference between the two inner branches.
	wantSlack := byLabel["left"].Exec - byLabel["right"].Exec
	if got := byLabel["right"].Slack; got != wantSlack {
		t.Fatalf("right slack %d, want exactly %d", got, wantSlack)
	}
	for _, l := range []string{"top", "left", "bottom"} {
		if s := byLabel[l].Slack; s != 0 {
			t.Fatalf("%s is on the critical path but has slack %d", l, s)
		}
	}
	// Parallelism: the two branches overlap and nothing else can.
	if a.MaxParallelism != 2 {
		t.Fatalf("max parallelism %d, want 2", a.MaxParallelism)
	}
	var wantTotal int64
	for _, ti := range byLabel {
		wantTotal += ti.Exec
	}
	if a.TotalExec != wantTotal {
		t.Fatalf("total exec %d, want %d", a.TotalExec, wantTotal)
	}
	// The profile is a partition of the span: levels × times integrate to
	// the span and the exec-weighted sum to the total execution time.
	var span, exec int64
	for l, ns := range a.Profile {
		span += ns
		exec += int64(l) * ns
	}
	if span != a.Span {
		t.Fatalf("profile integrates to %d, span is %d", span, a.Span)
	}
	if exec != a.TotalExec {
		t.Fatalf("exec-weighted profile %d, total exec %d", exec, a.TotalExec)
	}
}

// TestObserveSimDeterministic pins virtual-time determinism end to end:
// two identical simulated runs produce identical analyses.
func TestObserveSimDeterministic(t *testing.T) {
	a1 := obs.Analyze(simDiamond(t))
	a2 := obs.Analyze(simDiamond(t))
	if a1.CPLen != a2.CPLen || a1.Span != a2.Span || a1.TotalExec != a2.TotalExec {
		t.Fatalf("simulated traces differ across identical runs: cp %d/%d span %d/%d exec %d/%d",
			a1.CPLen, a2.CPLen, a1.Span, a2.Span, a1.TotalExec, a2.TotalExec)
	}
}

// TestScheduleFuzzObserved re-runs the schedule-fuzz programs with a
// recorder attached, across native polling/blocking and the simulator:
// the recorder must not perturb correctness (same happens-before and
// final-state checks as the main battery), and the trace must account for
// every task — submits, executions, and edge events matching the engine's
// own counters exactly when nothing was dropped.
func TestScheduleFuzzObserved(t *testing.T) {
	seeds := []int64{1, 20260726}
	if testing.Short() {
		seeds = seeds[:1]
	}
	configs := []struct {
		name   string
		native bool
		opts   []ompss.Option
	}{
		{"native/w4-polling", true, []ompss.Option{ompss.Workers(4)}},
		{"native/w3-blocking", true, []ompss.Option{ompss.Workers(3), ompss.Wait(ompss.Blocking)}},
		{"sim/c4", false, []ompss.Option{ompss.Seed(7)}},
	}
	for _, seed := range seeds {
		p := genProg(seed, 1<<30)
		for _, cfg := range configs {
			t.Run(fmt.Sprintf("seed%d/%s", seed, cfg.name), func(t *testing.T) {
				rec := obs.NewRecorder()
				cells := newFuzzCells(p.nKeys)
				var st ompss.RunStats
				if cfg.native {
					rt := ompss.New(append([]ompss.Option{ompss.Observe(rec)}, cfg.opts...)...)
					cells.run(p, rt)
					st = rt.Stats()
					rt.Shutdown()
				} else {
					if _, err := ompss.RunSim(machine.Paper(4), func(rt *ompss.Runtime) {
						cells.run(p, rt)
						st = rt.Stats()
					}, append([]ompss.Option{ompss.Observe(rec)}, cfg.opts...)...); err != nil {
						t.Fatalf("sim error: %v", err)
					}
				}
				cells.checkFinal(p)
				cells.mu.Lock()
				violations := cells.violations
				cells.mu.Unlock()
				if len(violations) > 0 {
					t.Fatalf("recorder-attached schedule violated dependences: %s", violations[0])
				}
				tr := rec.Snapshot()
				if tr.TotalDropped() != 0 {
					t.Fatalf("fuzz program overflowed default rings: %d dropped", tr.TotalDropped())
				}
				a := obs.Analyze(tr)
				if a.Submitted != p.nTasks || a.Executed != p.nTasks {
					t.Fatalf("trace lost tasks: submitted=%d executed=%d, program has %d",
						a.Submitted, a.Executed, p.nTasks)
				}
				if uint64(a.Edges) != st.Graph.Edges {
					t.Fatalf("trace has %d edges, engine wired %d", a.Edges, st.Graph.Edges)
				}
				if int(st.Sched.Steals) != a.Steals {
					t.Fatalf("trace has %d steals, scheduler counted %d", a.Steals, st.Sched.Steals)
				}
			})
		}
	}
}

// TestObserveNativeStressWraparound drives far more events than the rings
// hold from concurrently submitting goroutines — the contended wraparound
// path, -race-checked — and verifies the analyzer reports the truncation
// instead of presenting partial data as complete.
func TestObserveNativeStressWraparound(t *testing.T) {
	const (
		submitters = 4
		perG       = 400
		capacity   = 128
	)
	rec := obs.NewRecorder(obs.Capacity(capacity))
	rt := ompss.New(ompss.Workers(4), ompss.Observe(rec))
	var counters [submitters]struct {
		v int64
		_ [56]byte
	}
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := rt.Register(&counters[g])
			for i := 0; i < perG; i++ {
				rt.Task(func(*ompss.TC) { counters[g].v++ }, ompss.InOut(d))
			}
		}()
	}
	wg.Wait()
	rt.Taskwait()
	st := rt.Stats()
	rt.Shutdown()
	for g := range counters {
		if counters[g].v != perG {
			t.Fatalf("chain %d: %d increments, want %d", g, counters[g].v, perG)
		}
	}
	if st.Graph.Finished != submitters*perG {
		t.Fatalf("finished %d tasks, want %d", st.Graph.Finished, submitters*perG)
	}
	tr := rec.Snapshot()
	if tr.TotalDropped() == 0 {
		t.Fatalf("expected ring wraparound at capacity %d with %d tasks", capacity, submitters*perG)
	}
	a := obs.Analyze(tr)
	if !a.Truncated || a.DroppedEvents != tr.TotalDropped() {
		t.Fatalf("truncation not reported: truncated=%v dropped=%d/%d",
			a.Truncated, a.DroppedEvents, tr.TotalDropped())
	}
	// The surviving stream still analyzes cleanly: whatever executed
	// completely is within the run's bounds.
	if a.Executed == 0 || a.Span <= 0 {
		t.Fatalf("truncated trace unusable: executed=%d span=%d", a.Executed, a.Span)
	}
}

// TestObserveBlockingTaskwaitEvents checks the taskwait and idle spans
// recorded by the blocking-mode native backend pair up (analyzer sees
// non-negative spans and a consistent task count).
func TestObserveBlockingTaskwaitEvents(t *testing.T) {
	rec := obs.NewRecorder()
	rt := ompss.New(ompss.Workers(2), ompss.Wait(ompss.Blocking), ompss.Observe(rec))
	d := rt.Register(new(int))
	for i := 0; i < 50; i++ {
		rt.Task(func(*ompss.TC) { time.Sleep(50 * time.Microsecond) }, ompss.InOut(d))
	}
	rt.Taskwait()
	rt.Shutdown()
	a := obs.Analyze(rec.Snapshot())
	if a.Executed != 50 {
		t.Fatalf("executed %d, want 50", a.Executed)
	}
	for i, ws := range a.ByWorker {
		if ws.Idle < 0 || ws.Taskwait < 0 {
			t.Fatalf("lane %d: negative span idle=%d taskwait=%d", i, ws.Idle, ws.Taskwait)
		}
	}
	// The master (lane 1) spent essentially the whole serialized chain
	// inside its taskwait.
	if a.ByWorker[1].Taskwait == 0 {
		t.Fatal("master recorded no taskwait span")
	}
}

// TestObserveRenameEvents checks that rename and writeback engine events
// reach the stream through the graph probe.
func TestObserveRenameEvents(t *testing.T) {
	rec := obs.NewRecorder()
	rt := ompss.New(ompss.Workers(2), ompss.WithTuning(ompss.Tuning{Renaming: ompss.On}), ompss.Observe(rec))
	buf := new([4]int64)
	d := rt.Register(buf)
	d.EnableRenaming(buf, func() any { return new([4]int64) },
		func(dst, src any) { *dst.(*[4]int64) = *src.(*[4]int64) })
	for round := 0; round < 8; round++ {
		round := round
		for r := 0; r < 3; r++ {
			rt.Task(func(tc *ompss.TC) { _ = tc.Data(d).(*[4]int64)[0] }, ompss.In(d))
		}
		rt.Task(func(tc *ompss.TC) { tc.Data(d).(*[4]int64)[0] = int64(round) }, ompss.Out(d))
	}
	rt.Taskwait()
	st := rt.Stats()
	rt.Shutdown()
	a := obs.Analyze(rec.Snapshot())
	if a.Renames != int(st.Graph.Renamed) {
		t.Fatalf("trace has %d renames, engine performed %d", a.Renames, st.Graph.Renamed)
	}
	if a.Writebacks != int(st.Graph.Writebacks) {
		t.Fatalf("trace has %d writebacks, engine performed %d", a.Writebacks, st.Graph.Writebacks)
	}
	if st.Graph.Renamed == 0 {
		t.Skip("schedule produced no renames (all readers drained before each writer)")
	}
}
