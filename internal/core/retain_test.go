package core

import (
	"errors"
	"testing"
)

// countOwner is an Owner that counts the Recycle calls of the tasks it owns,
// so a test can see the tracker drop a slot's reference.
type countOwner struct{ recycled int }

func (*countOwner) Settle(error) {}
func (o *countOwner) Recycle()   { o.recycled++ }

// submitDone submits t, which must be ready, and finishes it with err.
func submitDone(tb testing.TB, g *Graph, t *Task, err error) {
	tb.Helper()
	if !g.Submit(t) {
		tb.Fatalf("task %q not ready at submission", t.Label)
	}
	g.Finish(t, err)
}

// TestShedBoundsAccessorLists reads one datum
// with 10,000 tasks that finish as they go, inflight of them unfinished at
// a time: the list keeps at most the unfinished ones plus the slack of a
// list that doubles only while more than half of it is live, and every
// task shed from it has had its slot's reference dropped.
func TestShedBoundsAccessorLists(t *testing.T) {
	t.Run("in", func(t *testing.T) {
		const n, inflight = 10000, 8
		g := NewGraph()
		x := new(int)
		d := g.Register(x)
		own := &countOwner{}
		var live []*Task
		longest := 0
		for i := 0; i < n; i++ {
			r := &Task{Owner: own, Accesses: []Access{{Key: x, Mode: In, Datum: d}}}
			if !g.Submit(r) {
				t.Fatalf("task %d waits on a predecessor", i)
			}
			live = append(live, r)
			if len(live) > inflight {
				g.Finish(live[0], nil)
				live = live[1:]
			}
			longest = max(longest, len(d.readers))
		}
		if longest > 4*inflight {
			t.Errorf("the reader list reached %d entries with %d tasks in flight", longest, inflight)
		}
		if min := n - longest - inflight; own.recycled < min {
			t.Errorf("%d tasks recycled, want at least %d: a shed task kept its reference", own.recycled, min)
		}
	})
}

// TestShedKeepsFailedAccessors fails (or skips) one reader of a datum, then runs enough successful ones after it that the
// list sheds several times: the failed one must still be listed, so that
// the next writer of its domain inherits its error, while a writer of
// another domain still does not.
func TestShedKeepsFailedAccessors(t *testing.T) {
	boom, skip := errors.New("boom"), errors.New("skipped upstream")
	dom, other := &Domain{ID: 1}, &Domain{ID: 2}
	for _, c := range []struct {
		name    string
		err     error
		skipped bool
	}{
		{"failed reader", boom, false},
		{"skipped reader", skip, true},
	} {
		// history gives a fresh datum the failed reader, then 100
		// successful ones that finish as they go.
		history := func(t *testing.T) (*Graph, *Datum) {
			g := NewGraph()
			x := new(int)
			d := g.Register(x)
			own := &countOwner{}
			access := []Access{{Key: x, Mode: In, Datum: d}}
			bad := &Task{Owner: own, Domain: dom, Label: "bad", Accesses: access}
			if c.skipped {
				bad.MarkSkipped()
			}
			submitDone(t, g, bad, c.err)
			for i := 0; i < 100; i++ {
				submitDone(t, g, &Task{Owner: own, Domain: dom, Accesses: access}, nil)
			}
			if len(d.readers) > 8 || own.recycled == 0 {
				t.Fatalf("the list holds %d entries and %d tasks were recycled: nothing was shed", len(d.readers), own.recycled)
			}
			return g, d
		}
		writer := func(d *Datum, dom *Domain) *Task {
			return &Task{Domain: dom, Label: "writer", Accesses: []Access{{Key: d.Key, Mode: Out, Datum: d}}}
		}
		t.Run(c.name+"/same domain", func(t *testing.T) {
			g, d := history(t)
			w := writer(d, dom)
			g.Submit(w)
			if err := w.Upstream(); !errors.Is(err, c.err) {
				t.Errorf("the next writer of the domain inherited %v, want %v", err, c.err)
			}
		})
		t.Run(c.name+"/other domain", func(t *testing.T) {
			g, d := history(t)
			w := writer(d, other)
			g.Submit(w)
			if err := w.Upstream(); err != nil {
				t.Errorf("a writer of another domain imported %v", err)
			}
		})
	}
}

// TestFinishedSuccessorLists checks which tasks keep their successor array
// past Finish: a bare task, as the distributed coordinator uses, holds none
// (a finished coordinator task pins no successors), while an owned task
// keeps it emptied for Reset, and its next life starts with no stale
// successor or pred.
func TestFinishedSuccessorLists(t *testing.T) {
	for _, owned := range []bool{false, true} {
		g := NewGraph()
		x := new(int)
		var own Owner
		if owned {
			own = &countOwner{}
		}
		head := &Task{Owner: own, Accesses: []Access{{Key: x, Mode: Out}}}
		head.Hold() // the executor's reference, so Finish cannot recycle it
		g.Submit(head)
		for i := 0; i < 3; i++ {
			if g.Submit(&Task{Accesses: []Access{{Key: x, Mode: In}}}) {
				t.Fatal("a reader of an unfinished writer is ready")
			}
		}
		ready := g.Finish(head, nil)
		if len(ready) != 3 {
			t.Fatalf("Finish released %d readers, want 3", len(ready))
		}
		clear(ready)
		if n := len(head.Succs()); n != 0 {
			t.Errorf("owned=%v: a finished task lists %d successors", owned, n)
		}
		if !owned {
			if head.succs != nil {
				t.Errorf("a bare task holds a successor array of %d after Finish", cap(head.succs))
			}
			continue
		}
		if cap(head.succs) < 3 {
			t.Errorf("an owned task dropped its successor array (cap %d)", cap(head.succs))
		}
		head.Reset()
		if cap(head.succs) < 3 || len(head.succs) != 0 || len(head.Preds) != 0 {
			t.Fatalf("Reset kept succs %d/%d and Preds %d", len(head.succs), cap(head.succs), len(head.Preds))
		}
		for _, s := range head.succs[:cap(head.succs)] {
			if s != nil {
				t.Fatal("the kept successor array still names a released task")
			}
		}
	}
}

// TestResetBoundsKeptArrays checks that a task whose lists grew past keptCap
// comes out of Reset without them, so one wide task cannot park a large
// array with its owner.
func TestResetBoundsKeptArrays(t *testing.T) {
	tk := &Task{
		Accesses: make([]Access, 1, keptCap+1),
		Preds:    make([]uint64, 1, keptCap+1),
		succs:    make([]*Task, 0, keptCap+1),
		bindings: make([]verBinding, 0, keptCap+1),
	}
	tk.Reset()
	if tk.Accesses != nil || tk.Preds != nil || tk.succs != nil || tk.bindings != nil {
		t.Errorf("Reset kept arrays of %d, %d, %d and %d entries, over the bound %d",
			cap(tk.Accesses), cap(tk.Preds), cap(tk.succs), cap(tk.bindings), keptCap)
	}
	tk = &Task{Accesses: make([]Access, 5, keptCap), Preds: make([]uint64, 3, keptCap)}
	tk.Accesses[4].Key = "stale"
	tk.Reset()
	if cap(tk.Accesses) != keptCap || cap(tk.Preds) != keptCap || len(tk.Accesses) != 0 || len(tk.Preds) != 0 {
		t.Fatalf("Reset kept Accesses %d/%d and Preds %d/%d", len(tk.Accesses), cap(tk.Accesses), len(tk.Preds), cap(tk.Preds))
	}
	if tk.Accesses[:5][4].Key != nil {
		t.Error("the kept access array still holds a key")
	}
}
