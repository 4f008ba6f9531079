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
	if unset.isSet() || unset.isAuto() {
		t.Errorf("zero Setting must be unset and not Auto")
	}
	if Setting(Auto) != settingAuto || !Setting(Auto).isAuto() || !Setting(Auto).isSet() {
		t.Errorf("Auto must convert to the auto Setting")
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
		Locality: Off, Affinity: Off, Domains: Fixed(4), Renaming: On, RenameCap: Fixed(7),
	})})
	if c.localityOn() || c.affinityOn() || c.domainsN() != 4 || !c.renamingOn() || c.renameCapN() != 7 {
		t.Errorf("profile resolved to locality=%v affinity=%v domains=%d renaming=%v cap=%d",
			c.localityOn(), c.affinityOn(), c.domainsN(), c.renamingOn(), c.renameCapN())
	}
	if d := buildConfig(nil); !d.localityOn() || !d.affinityOn() || d.domainsN() != 0 || d.renamingOn() || d.renameCapN() != 0 {
		t.Errorf("defaults: locality=%v affinity=%v domains=%d renaming=%v cap=%d",
			d.localityOn(), d.affinityOn(), d.domainsN(), d.renamingOn(), d.renameCapN())
	}

	// The last writer of a field wins.
	c = buildConfig([]Option{WithTuning(Tuning{RenameCap: Fixed(3)}), WithTuning(Tuning{RenameCap: Fixed(9)})})
	if c.renameCapN() != 9 {
		t.Errorf("later profile renameCap = %d, want 9", c.renameCapN())
	}
	// Unset profile fields inherit: a profile that only pins Domains must
	// not disturb an earlier Locality choice.
	c = buildConfig([]Option{WithTuning(Tuning{Locality: Off}), WithTuning(Tuning{Domains: Fixed(2)})})
	if c.localityOn() || c.domainsN() != 2 {
		t.Errorf("merge: locality=%v domains=%d, want false/2", c.localityOn(), c.domainsN())
	}
}

// TestTaskLoopAutoChunk pins the Auto sentinel's semantics on the native
// runtime: exactly Auto engages chunk selection (heuristic without a
// controller, controller with one); any other non-positive chunk keeps the
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

	// Untuned runtime, chunk=Auto: the workers-derived heuristic
	// n/(4·workers) = 16 → 16 chunk tasks.
	rt := New(Workers(workers))
	if got := run(rt, Auto); got != 16 {
		t.Errorf("untuned Auto: %d chunk tasks, want 16 (heuristic n/4w)", got)
	}
	rt.Shutdown()

	// Any other non-positive chunk clamps to 1: n tasks, not heuristic.
	rt = New(Workers(workers))
	if got := run(rt, -2); got != n {
		t.Errorf("chunk=-2: %d tasks, want %d (clamp-to-1, Auto is exactly %d)", got, n, Auto)
	}
	rt.Shutdown()

	// Tuned runtime: before any measurement the controller answers with the
	// same heuristic; after the first loop its per-iteration EWMA takes
	// over. Either way the space is covered exactly once per pass.
	rt = New(Workers(workers), WithTuning(Tuning{Grain: Auto}))
	prev := uint64(0)
	for pass := 0; pass < 3; pass++ {
		total := run(rt, Auto)
		if total-prev < 1 {
			t.Fatalf("pass %d spawned no chunk tasks", pass)
		}
		prev = total
	}
	ls := rt.Stats().Labels
	found := false
	for _, l := range ls {
		if l.Label == "auto-loop" {
			found = true
			if l.Count == 0 || l.Iters != 3*n {
				t.Errorf("label stats = %+v, want Count>0 and Iters=%d", l, 3*n)
			}
		}
	}
	if !found {
		t.Errorf("LabelStats() lacks auto-loop: %+v", ls)
	}
	rt.Shutdown()

	// Grain pinned via the profile: Auto call sites use the fixed chunk.
	rt = New(Workers(workers), WithTuning(Tuning{Grain: Fixed(64)}))
	if got := run(rt, Auto); got != n/64 {
		t.Errorf("Grain Fixed(64): %d chunk tasks, want %d", got, n/64)
	}
	rt.Shutdown()
}

// TestTaskLoopAutoSimDeterministic pins controller determinism under the
// simulator: virtual-time measurements drive the grain loop, so two
// identical runs must produce identical makespans and task counts.
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
		t.Fatalf("tuned sim runs diverged: makespan %v/%v, tasks %d/%d", m1, m2, t1, t2)
	}
	if t1 <= 4 {
		t.Fatalf("suspiciously few chunk tasks: %d", t1)
	}
}

// TestSessionTuningPins pins session-profile precedence: a session Tuning
// can pin renaming knobs over the runtime's profile (the PR 6 field-by-field
// rules), and the session surface reports the runtime's label aggregates.
func TestSessionTuningPins(t *testing.T) {
	rt := New(Workers(2), WithTuning(Tuning{Grain: Auto}))
	defer rt.Shutdown()

	s := rt.NewSession(WithTuning(Tuning{Renaming: On, RenameCap: Fixed(2)}))
	if s.dom.Rename != core.RenameForceOn {
		t.Errorf("session rename override = %v, want force-on", s.dom.Rename)
	}
	if s.dom.RenameCap != 2 {
		t.Errorf("session rename cap = %d, want 2", s.dom.RenameCap)
	}
	done := make(chan struct{})
	s.Task(func(*TC) { close(done) }, Label("sess-task"))
	s.Taskwait()
	<-done
	st := s.Stats()
	if st.Finished != 1 {
		t.Fatalf("session finished = %d, want 1", st.Finished)
	}
	found := false
	for _, l := range st.Labels {
		if l.Label == "sess-task" && l.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("session Stats().Labels lacks sess-task: %+v", st.Labels)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("session close: %v", err)
	}
}

// TestStealBackoffSetpointsReachSpinner pins the Tunables plumbing: a
// pinned StealBackoff creates the setpoint block without a controller, and
// an Auto StealBackoff arms the controller with the static defaults seeded.
func TestStealBackoffSetpointsReachSpinner(t *testing.T) {
	rt := New(Workers(2), WithTuning(Tuning{StealBackoff: Fixed(250)}))
	nb := rt.lc
	if nb.tn == nil {
		t.Fatalf("pinned StealBackoff did not create the Tunables block")
	}
	if nb.ctl != nil {
		t.Errorf("pinned StealBackoff must not arm the controller")
	}
	if got := nb.tn.SleepCapNS.Load(); got != 250_000 {
		t.Errorf("pinned sleep cap = %dns, want 250µs", got)
	}
	rt.Shutdown()

	rt = New(Workers(2), WithTuning(Tuning{StealBackoff: Auto}))
	nb = rt.lc
	if nb.ctl == nil || nb.tn == nil {
		t.Fatalf("Auto StealBackoff must arm the controller")
	}
	if got := nb.tn.SpinYields.Load(); got == 0 {
		t.Errorf("controller did not seed SpinYields")
	}
	var ran atomic.Bool
	rt.Task(func(*TC) { ran.Store(true) })
	rt.Taskwait()
	if !ran.Load() {
		t.Fatalf("task did not run under adaptive backoff")
	}
	rt.Shutdown()
}
