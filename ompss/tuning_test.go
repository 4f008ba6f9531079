package ompss

import (
	"sync/atomic"
	"testing"
	"time"

	"ompssgo/internal/core"
	"ompssgo/machine"
)

func TestSettingEncoding(t *testing.T) {
	var unset Setting
	if unset.isSet() {
		t.Errorf("zero Setting must be unset")
	}
	if !Setting(Auto).isSet() {
		t.Errorf("Auto must count as set")
	}
	if v, ok := Fixed(0).value(); !ok || v != 0 {
		t.Errorf("Fixed(0).value() = (%d, %v), want (0, true) — distinguishable from unset", v, ok)
	}
	if v, ok := Fixed(7).value(); !ok || v != 7 {
		t.Errorf("Fixed(7).value() = (%d, %v), want (7, true)", v, ok)
	}
	if _, ok := unset.value(); ok {
		t.Errorf("unset Value() must report not-set")
	}
	if _, ok := Setting(Auto).value(); ok {
		t.Errorf("Auto Value() must report not-pinned")
	}
	if Off != Fixed(0) || On != Fixed(1) {
		t.Errorf("On/Off must alias Fixed(1)/Fixed(0)")
	}
	if Off.boolOr(true) || !On.boolOr(false) {
		t.Errorf("On/Off boolOr must pin the truth value")
	}
	if !unset.boolOr(true) || unset.boolOr(false) {
		t.Errorf("unset boolOr must return the default")
	}
}

// TestWithTuningMergesFieldByField pins the one option surface for the
// scheduling and renaming knobs: every profile field resolves into the
// engine configuration, a later WithTuning overrides an earlier one field by
// field, and unset fields inherit.
func TestWithTuningMergesFieldByField(t *testing.T) {
	c := buildConfig([]Option{WithTuning(Tuning{
		Grain: Fixed(16), StealBackoff: Fixed(250), Renaming: On, Locality: Off,
	})})
	if v, _ := c.tun.Grain.value(); v != 16 || c.localityOn() || !c.renamingOn() {
		t.Errorf("profile resolved to grain=%d locality=%v renaming=%v", v, c.localityOn(), c.renamingOn())
	}
	if v, _ := c.tun.StealBackoff.value(); v != 250 {
		t.Errorf("profile resolved to steal backoff %d, want 250", v)
	}
	if d := buildConfig(nil); !d.localityOn() || d.renamingOn() || d.tun.Grain.isSet() || d.tun.StealBackoff.isSet() {
		t.Errorf("defaults: locality=%v renaming=%v tuning=%+v", d.localityOn(), d.renamingOn(), d.tun)
	}

	// The last writer of a field wins.
	c = buildConfig([]Option{WithTuning(Tuning{Grain: Fixed(3)}), WithTuning(Tuning{Grain: Fixed(9)})})
	if v, _ := c.tun.Grain.value(); v != 9 {
		t.Errorf("later profile grain = %d, want 9", v)
	}
	// Unset profile fields inherit: a profile that only pins Renaming must
	// not disturb an earlier Locality choice.
	c = buildConfig([]Option{WithTuning(Tuning{Locality: Off}), WithTuning(Tuning{Renaming: On})})
	if c.localityOn() || !c.renamingOn() {
		t.Errorf("merge: locality=%v renaming=%v, want false/true", c.localityOn(), c.renamingOn())
	}
}

// TestTaskLoopAutoChunk pins the Auto sentinel's semantics on the native
// runtime: exactly Auto engages chunk selection (the workers-derived
// heuristic, or the pinned Grain); any other non-positive chunk keeps the
// historical clamp-to-1.
func TestTaskLoopAutoChunk(t *testing.T) {
	const n, workers = 256, 4

	run := func(rt *Runtime, chunk int) uint64 {
		var hit [n]int32
		rt.TaskLoop(n, chunk, func(_ *TC, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hit[i], 1)
			}
		}, Label("auto-loop"))
		rt.Taskwait()
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("chunk=%d: iteration %d executed %d times", chunk, i, h)
			}
		}
		return rt.Stats().Graph.Finished
	}

	// chunk=Auto: the workers-derived heuristic n/(4·workers) = 16 → 16
	// chunk tasks.
	rt := New(Workers(workers))
	if got := run(rt, Auto); got != 16 {
		t.Errorf("Auto: %d chunk tasks, want 16 (heuristic n/4w)", got)
	}
	rt.Shutdown()

	// Any other non-positive chunk clamps to 1: n tasks, not heuristic.
	rt = New(Workers(workers))
	if got := run(rt, -2); got != n {
		t.Errorf("chunk=-2: %d tasks, want %d (clamp-to-1, Auto is exactly %d)", got, n, Auto)
	}
	rt.Shutdown()

	// Grain pinned via the profile: Auto call sites use the fixed chunk.
	rt = New(Workers(workers), WithTuning(Tuning{Grain: Fixed(64)}))
	if got := run(rt, Auto); got != n/64 {
		t.Errorf("Grain Fixed(64): %d chunk tasks, want %d", got, n/64)
	}
	rt.Shutdown()
}

// TestTaskLoopAutoSimDeterministic pins Auto chunking under the simulator:
// two identical runs must produce identical makespans and task counts.
func TestTaskLoopAutoSimDeterministic(t *testing.T) {
	mc := machine.Config{Cores: 4, Sockets: 2}
	once := func() (time.Duration, uint64) {
		var tasks uint64
		st, err := RunSim(mc, func(rt *Runtime) {
			for pass := 0; pass < 4; pass++ {
				rt.TaskLoop(128, Auto, func(tc *TC, lo, hi int) {
					tc.Compute(time.Duration(hi-lo) * 40 * time.Microsecond)
				}, Label("simloop"))
				rt.Taskwait()
			}
			tasks = rt.Stats().Graph.Finished
		}, WithTuning(Tuning{Grain: Auto}))
		if err != nil {
			t.Fatal(err)
		}
		return st.Makespan, tasks
	}
	m1, t1 := once()
	m2, t2 := once()
	if m1 != m2 || t1 != t2 {
		t.Fatalf("sim runs diverged: makespan %v/%v, tasks %d/%d", m1, m2, t1, t2)
	}
	if t1 != 4*16 {
		t.Fatalf("%d chunk tasks over 4 passes, want %d (16 chunks of n/4w each)", t1, 4*16)
	}
}

// autoRun is what one run of autoProgram leaves behind.
type autoRun struct {
	chunks int
	hits   [256]int32
	cell   int64
	graph  core.GraphStats
}

// autoProgram runs TaskLoop(256, Auto) beside a renamed datum: three
// readers of the datum, an InOut writer that renames past them, and a
// reader of the new version. hold runs at the start of the first four datum
// bodies and keeps them unfinished until everything is submitted — a gate
// the master opens natively, a millisecond of compute simulated — so every
// rename decision and edge is wired against unfinished tasks and the graph
// counters do not depend on timing.
func autoProgram(rt *Runtime, hold func(*TC), release func()) autoRun {
	var r autoRun
	d := rt.Register(&r.cell).EnableRenaming(nil,
		func() any { return new(int64) },
		func(dst, src any) { *dst.(*int64) = *src.(*int64) })
	var seen atomic.Int64
	for i := 0; i < 3; i++ {
		rt.Task(func(tc *TC) { hold(tc); seen.Add(*tc.Data(d).(*int64)) }, In(d))
	}
	rt.Task(func(tc *TC) { hold(tc); *tc.Data(d).(*int64) += 100 }, InOut(d))
	rt.Task(func(tc *TC) { seen.Add(*tc.Data(d).(*int64)) }, In(d))
	var chunks atomic.Int32
	rt.TaskLoop(len(r.hits), Auto, func(_ *TC, lo, hi int) {
		chunks.Add(1)
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&r.hits[i], 1)
		}
	})
	release()
	rt.Taskwait()
	r.chunks = int(chunks.Load())
	r.cell += seen.Load() // the readers saw 0, 0, 0 and then 100
	r.graph = rt.Stats().Graph
	return r
}

// TestTuningAutoIsStaticDefault pins what Auto means in a Tuning field:
// exactly the static default of an unset field. A TaskLoop(n, Auto) program
// beside a renamed datum runs with WithTuning(Tuning{Grain: Auto,
// StealBackoff: Auto}) and without, natively and on the
// simulated machine at 4 cores; both must spawn chunks of n/(4·workers), end in
// the same state with the same graph counters, and — simulated — take the
// same virtual time in the same number of events.
func TestTuningAutoIsStaticDefault(t *testing.T) {
	const workers = 4
	auto := WithTuning(Tuning{Grain: Auto, StealBackoff: Auto})
	base := []Option{Workers(workers), WithTuning(Tuning{Renaming: On})}
	check := func(leg string, r autoRun) {
		t.Helper()
		if r.chunks != 4*workers { // chunks of n/(4·workers) iterations
			t.Errorf("%s: %d chunk tasks, want %d", leg, r.chunks, 4*workers)
		}
		for i, h := range r.hits {
			if h != 1 {
				t.Fatalf("%s: iteration %d executed %d times", leg, i, h)
			}
		}
		if r.cell != 200 || r.graph.Renamed != 1 || r.graph.Edges != 1 || r.graph.Writebacks != 1 {
			t.Errorf("%s: cell %d, graph %+v; want cell 200 and one rename, edge and writeback", leg, r.cell, r.graph)
		}
	}

	native := func(opts ...Option) autoRun {
		rt := New(append(base, opts...)...)
		defer rt.Shutdown()
		gate := make(chan struct{})
		return autoProgram(rt, func(*TC) { <-gate }, func() { close(gate) })
	}
	unset, set := native(), native(auto)
	check("native unset", unset)
	check("native Auto", set)
	if unset != set {
		t.Errorf("native: Auto profile diverged from unset:\n unset %+v\n Auto  %+v", unset.graph, set.graph)
	}

	sim := func(opts ...Option) (autoRun, machine.Stats) {
		var r autoRun
		st, err := RunSim(machine.Config{Cores: workers, Sockets: 2}, func(rt *Runtime) {
			r = autoProgram(rt, func(tc *TC) { tc.Compute(time.Millisecond) }, func() {})
		}, append(base, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return r, st
	}
	unset, su := sim()
	set, ss := sim(auto)
	check("sim unset", unset)
	check("sim Auto", set)
	if unset != set || su.Makespan != ss.Makespan || su.Events != ss.Events {
		t.Errorf("sim: Auto profile diverged from unset: makespan %v/%v, events %d/%d, graph %+v/%+v",
			su.Makespan, ss.Makespan, su.Events, ss.Events, unset.graph, set.graph)
	}
}

// TestStealBackoffSetpointsReachSpinner pins the one live StealBackoff
// path: Fixed(250) sets the Polling spinner's sleep cap to 250µs, and Auto
// leaves it at the static default, like unset.
func TestStealBackoffSetpointsReachSpinner(t *testing.T) {
	for _, c := range []struct {
		s    Setting
		want time.Duration
	}{{Fixed(250), 250 * time.Microsecond}, {Auto, spinSleepCap}, {0, spinSleepCap}} {
		rt := New(Workers(2), WithTuning(Tuning{StealBackoff: c.s}))
		if got := rt.lc.clk.(*nativeClock).sleepCap; got != c.want {
			t.Errorf("StealBackoff %d: spinner sleep cap %v, want %v", c.s, got, c.want)
		}
		var ran atomic.Bool
		rt.Task(func(*TC) { ran.Store(true) })
		rt.Taskwait()
		if !ran.Load() {
			t.Fatalf("StealBackoff %d: task did not run", c.s)
		}
		rt.Shutdown()
	}
}
