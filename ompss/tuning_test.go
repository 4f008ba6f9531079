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
	for _, s := range []Setting{Auto, On, Off} {
		if !s.isSet() {
			t.Errorf("Setting %d must count as set", s)
		}
	}
	if On == Off || Setting(Auto) == On || Setting(Auto) == Off {
		t.Errorf("Auto, On and Off must be distinct: %d, %d, %d", Setting(Auto), On, Off)
	}
	if Off.boolOr(true) || !On.boolOr(false) {
		t.Errorf("On/Off boolOr must pin the truth value")
	}
	if !unset.boolOr(true) || unset.boolOr(false) {
		t.Errorf("unset boolOr must return the default")
	}
	if !Setting(Auto).boolOr(true) || Setting(Auto).boolOr(false) {
		t.Errorf("Auto boolOr must return the default")
	}
}

// TestWithTuningMergesFieldByField pins the one option surface for the
// scheduling and renaming knobs: every live profile field resolves into the
// engine configuration, a later WithTuning overrides an earlier one field by
// field, and unset fields inherit.
func TestWithTuningMergesFieldByField(t *testing.T) {
	c := buildConfig([]Option{WithTuning(Tuning{Renaming: On, Locality: Off})})
	if c.localityOn() || !c.renamingOn() {
		t.Errorf("profile resolved to locality=%v renaming=%v", c.localityOn(), c.renamingOn())
	}
	if d := buildConfig(nil); !d.localityOn() || d.renamingOn() || d.tun != (Tuning{}) {
		t.Errorf("defaults: locality=%v renaming=%v tuning=%+v", d.localityOn(), d.renamingOn(), d.tun)
	}

	// The last writer of a field wins, Auto included.
	c = buildConfig([]Option{WithTuning(Tuning{Locality: Off}), WithTuning(Tuning{Locality: On})})
	if !c.localityOn() {
		t.Errorf("later profile locality = off, want on")
	}
	c = buildConfig([]Option{WithTuning(Tuning{Renaming: On}), WithTuning(Tuning{Renaming: Auto})})
	if c.renamingOn() {
		t.Errorf("later Auto renaming = on, want the default (off)")
	}
	// Unset profile fields inherit: a profile that only pins Renaming must
	// not disturb an earlier Locality choice.
	c = buildConfig([]Option{WithTuning(Tuning{Locality: Off}), WithTuning(Tuning{Renaming: On})})
	if c.localityOn() || !c.renamingOn() {
		t.Errorf("merge: locality=%v renaming=%v, want false/true", c.localityOn(), c.renamingOn())
	}
}

// autoRun is what one run of autoProgram leaves behind.
type autoRun struct {
	chunks int
	hits   [256]int32
	cell   int64
	graph  core.GraphStats
}

// autoProgram runs a loop of 256 iterations in chunks of 16 (what
// 256/(4·workers) gives at 4 workers) beside a renamed datum: three
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
	for lo := 0; lo < len(r.hits); lo += 16 {
		rt.Master().Task(func(*TC) {
			chunks.Add(1)
			for i := lo; i < lo+16; i++ {
				atomic.AddInt32(&r.hits[i], 1)
			}
		})
	}
	release()
	rt.Taskwait()
	r.chunks = int(chunks.Load())
	r.cell += seen.Load() // the readers saw 0, 0, 0 and then 100
	r.graph = rt.Stats().Graph
	return r
}

// TestTuningAutoIsStaticDefault pins what Auto means in a Tuning field:
// exactly the static default of an unset field. A chunked loop beside a
// renamed datum runs with WithTuning(Tuning{Grain: Auto, StealBackoff: Auto,
// Locality: Auto}) and without, natively and on the simulated machine at 4
// cores; both must end in the same state with the same graph counters, and
// — simulated — take the same virtual time in the same number of events.
func TestTuningAutoIsStaticDefault(t *testing.T) {
	const workers = 4
	auto := WithTuning(Tuning{Grain: Auto, StealBackoff: Auto, Locality: Auto})
	base := []Option{Workers(workers), WithTuning(Tuning{Renaming: On})}
	check := func(leg string, r autoRun) {
		t.Helper()
		if r.chunks != 4*workers {
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
