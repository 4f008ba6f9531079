package core

import (
	"errors"
	"testing"
)

// renameFixture builds a renaming-enabled graph over one int64 cell.
type renameFixture struct {
	g     *Graph
	d     *Datum
	cell  int64
	alloc int // instances allocated (pool misses)
}

func newRenameFixture(enabled bool) *renameFixture {
	f := &renameFixture{g: NewGraph()}
	f.g.ConfigureRenaming(enabled)
	f.d = f.g.Register(&f.cell)
	f.d.EnableRenaming(&f.cell, func() any {
		f.alloc++
		return new(int64)
	}, func(dst, src any) { *dst.(*int64) = *src.(*int64) })
	return f
}

func (f *renameFixture) task(mode Mode) *Task {
	return &Task{Accesses: []Access{{Key: &f.cell, Mode: mode, Datum: f.d}}}
}

func (f *renameFixture) finish(t *Task, err error) []*Task { return f.g.Finish(t, err) }

func TestRenameOutSkipsWARAndWAW(t *testing.T) {
	f := newRenameFixture(true)

	r1 := f.task(In)
	if !f.g.Submit(r1) {
		t.Fatal("first reader should be ready")
	}
	w1 := f.task(Out)
	if !f.g.Submit(w1) {
		t.Fatal("Out writer blocked on a reader: WAR should have been renamed away")
	}
	// WAW: a second Out writer while w1 is still unfinished.
	w2 := f.task(Out)
	if !f.g.Submit(w2) {
		t.Fatal("Out writer blocked on an unfinished writer: WAW should have been renamed away")
	}
	if got := f.g.Stats().Renamed; got != 2 {
		t.Fatalf("Renamed = %d, want 2", got)
	}
	// The reader still sees the canonical instance; each writer got its own.
	p1 := f.d.PayloadFor(w1).(*int64)
	p2 := f.d.PayloadFor(w2).(*int64)
	if p1 == &f.cell || p2 == &f.cell || p1 == p2 {
		t.Fatal("writers must have distinct private instances")
	}
	if f.d.PayloadFor(r1).(*int64) != &f.cell {
		t.Fatal("pending reader must keep the canonical instance")
	}
}

func TestRenameWritebackAndReclaim(t *testing.T) {
	f := newRenameFixture(true)
	f.cell = 7

	r := f.task(In)
	f.g.Submit(r)
	w := f.task(Out)
	f.g.Submit(w)
	*f.d.PayloadFor(w).(*int64) = 42
	f.finish(w, nil)
	if f.cell != 7 {
		t.Fatalf("writeback ran while the reader was still in flight: cell = %d", f.cell)
	}
	if got := f.d.PayloadFor(r).(*int64); *got != 7 {
		t.Fatalf("reader's instance = %d, want the old value 7", *got)
	}
	f.finish(r, nil)
	if f.cell != 42 {
		t.Fatalf("after full drain cell = %d, want the written-back 42", f.cell)
	}
	if got := f.g.Stats().Writebacks; got != 1 {
		t.Fatalf("Writebacks = %d, want 1", got)
	}

	// A later round must reuse the reclaimed instance, not allocate.
	allocs := f.alloc
	r2, w2 := f.task(In), f.task(Out)
	f.g.Submit(r2)
	f.g.Submit(w2)
	if f.alloc != allocs {
		t.Fatalf("second round allocated a fresh instance (pool not reused): %d -> %d", allocs, f.alloc)
	}
	f.finish(r2, nil)
	f.finish(w2, nil)
}

func TestRenameInOutKeepsRAWBreaksWAR(t *testing.T) {
	f := newRenameFixture(true)
	f.cell = 5

	w1 := f.task(Out)
	f.g.Submit(w1)
	r := f.task(In)
	if f.g.Submit(r) {
		t.Fatal("reader must still wait for the writer (RAW is true)")
	}
	// An InOut writer behind the pending reader: the WAR is renamed away,
	// but its copy-in needs w1's value, so the RAW on w1 must remain.
	u := f.task(InOut)
	if f.g.Submit(u) {
		t.Fatal("renamed InOut must keep the RAW edge on the unfinished writer")
	}
	if got := f.g.Stats().Renamed; got != 1 {
		t.Fatalf("Renamed = %d, want 1 (the InOut)", got)
	}
	*f.d.PayloadFor(w1).(*int64) = 11
	f.finish(w1, nil)
	if !u.Finished() && u.NPred() != 0 {
		t.Fatalf("InOut still has %d preds after the writer finished", u.NPred())
	}
	// Copy-in seeds the InOut's private instance with w1's output.
	p := f.d.PayloadFor(u).(*int64)
	if *p != 11 {
		t.Fatalf("InOut copy-in saw %d, want 11", *p)
	}
	*p += 100
	f.finish(u, nil)
	f.finish(r, nil)
	if f.cell != 111 {
		t.Fatalf("final cell = %d, want 111", f.cell)
	}
}

func TestRenameCapFallsBack(t *testing.T) {
	f := newRenameFixture(true)

	// A pending reader per round keeps every version alive.
	var held []*Task
	for i := 0; i < DefaultMaxVersions; i++ {
		r := f.task(In)
		f.g.Submit(r)
		held = append(held, r)
		w := f.task(Out)
		if !f.g.Submit(w) {
			t.Fatalf("round %d writer should have renamed", i)
		}
		held = append(held, w)
		r2 := f.task(In)
		f.g.Submit(r2) // pins the renamed instance
		held = append(held, r2)
	}
	over := f.task(Out)
	if f.g.Submit(over) {
		t.Fatal("a writer beyond the cap must stall on its WAR/WAW edges")
	}
	st := f.g.Stats()
	if st.Renamed != DefaultMaxVersions || st.RenameFallbacks != 1 {
		t.Fatalf("Renamed=%d RenameFallbacks=%d, want %d and 1", st.Renamed, st.RenameFallbacks, DefaultMaxVersions)
	}
	for _, h := range held {
		f.finish(h, nil)
	}
	f.finish(over, nil)
}

func TestRenameDisabledAndNoRename(t *testing.T) {
	for _, tc := range []struct {
		name string
		fix  func() *renameFixture
	}{
		{"knob-off", func() *renameFixture { return newRenameFixture(false) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.fix()
			r := f.task(In)
			f.g.Submit(r)
			w := f.task(Out)
			if f.g.Submit(w) {
				t.Fatal("writer must stall on the WAR edge")
			}
			if f.g.Stats().Renamed != 0 {
				t.Fatal("nothing should have renamed")
			}
			// In-place semantics: the writer is bound to the canonical cell.
			if f.d.PayloadFor(w).(*int64) != &f.cell {
				t.Fatal("non-renamed writer must write the canonical instance")
			}
			f.finish(r, nil)
			f.finish(w, nil)
		})
	}
}

func TestRenameFailedWriterNotWrittenBack(t *testing.T) {
	f := newRenameFixture(true)
	f.cell = 9

	r := f.task(In)
	f.g.Submit(r)
	w := f.task(Out)
	f.g.Submit(w)
	*f.d.PayloadFor(w).(*int64) = 1000
	f.finish(w, errors.New("boom"))
	f.finish(r, nil)
	if f.cell != 9 {
		t.Fatalf("poisoned instance written back: cell = %d, want 9", f.cell)
	}
	if f.g.Stats().Writebacks != 0 {
		t.Fatal("no writeback expected for a poisoned instance")
	}
	// The chain must have collapsed and stayed usable.
	w2 := f.task(Out)
	f.g.Submit(w2)
	*f.d.PayloadFor(w2).(*int64) = 33
	f.finish(w2, nil)
	if f.cell != 33 {
		t.Fatalf("post-failure round: cell = %d, want 33", f.cell)
	}
}

func TestRenameWritersFlushSet(t *testing.T) {
	f := newRenameFixture(true)
	r := f.task(In)
	f.g.Submit(r)
	w := f.task(Out)
	f.g.Submit(w)
	ws := f.g.Writers(&f.cell)
	if len(ws) != 2 {
		t.Fatalf("Writers over a renamed datum = %d tasks, want both live accessors", len(ws))
	}
	f.finish(r, nil)
	f.finish(w, nil)
	if got := f.g.Writers(&f.cell); len(got) != 0 {
		t.Fatalf("Writers after drain = %d, want 0", len(got))
	}
}

// The review scenario behind prefix-writeback: a successful write must
// survive a LATER writer's failure even when the successful instance
// drains first — program order's newest good value wins, not the
// pre-chain value.
func TestRenameLastGoodValueSurvivesLaterFailure(t *testing.T) {
	f := newRenameFixture(true)
	f.cell = 1

	r0 := f.task(In) // pins the canonical instance
	f.g.Submit(r0)
	w1 := f.task(Out)
	f.g.Submit(w1)
	*f.d.PayloadFor(w1).(*int64) = 42
	r1 := f.task(In) // pins w1's instance
	f.g.Submit(r1)
	w2 := f.task(Out)
	f.g.Submit(w2)
	if got := f.g.Stats().Renamed; got != 2 {
		t.Fatalf("Renamed = %d, want 2", got)
	}
	f.finish(w1, nil)
	f.finish(r1, nil) // w1's instance fully drained while w2 is still live
	f.finish(w2, errors.New("boom"))
	f.finish(r0, nil)
	if f.cell != 42 {
		t.Fatalf("canonical = %d, want 42: the last successful write must be published, not the pre-chain value", f.cell)
	}
}

// Failure-propagation semantics renaming trades away (pinned, and
// documented on ompss.Tuning.Renaming): a renamed Out writer has no edge to the
// failed program-order predecessor and therefore no upstream error; a
// renamed InOut keeps its true RAW and inherits it.
func TestRenameFailurePropagationFollowsRemainingEdges(t *testing.T) {
	f := newRenameFixture(true)
	w1 := f.task(Out)
	f.g.Submit(w1)
	r := f.task(In)
	f.g.Submit(r)
	w2 := f.task(Out) // renames: WAR and WAW both gone
	if !f.g.Submit(w2) {
		t.Fatal("renamed Out should be immediately ready")
	}
	u := f.task(InOut) // renames reader-WAR, keeps RAW on w2
	f.g.Submit(u)
	f.finish(w1, errors.New("boom"))
	if w2.Upstream() != nil {
		t.Fatal("renamed Out must not inherit a failure through the broken WAW edge")
	}
	f.finish(w2, errors.New("later boom"))
	if u.Upstream() == nil {
		t.Fatal("renamed InOut must inherit its RAW predecessor's failure")
	}
	f.finish(u, u.Upstream())
	f.finish(r, nil)
}

func TestRenameNoConflictNoRename(t *testing.T) {
	f := newRenameFixture(true)
	w := f.task(Out)
	f.g.Submit(w)
	f.finish(w, nil)
	w2 := f.task(Out)
	f.g.Submit(w2)
	f.finish(w2, nil)
	if got := f.g.Stats().Renamed; got != 0 {
		t.Fatalf("Renamed = %d, want 0: conflict-free writes must not churn instances", got)
	}
}
