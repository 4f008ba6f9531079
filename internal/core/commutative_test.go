package core

import "testing"

func TestCommutativeTasksUnorderedAmongThemselves(t *testing.T) {
	m := newMiniExec(4, true, 20)
	x := new(int)
	w := &Task{Accesses: []Access{{Key: x, Mode: Out}}}
	m.submit(w)
	var comms []*Task
	for i := 0; i < 4; i++ {
		c := &Task{Accesses: []Access{{Key: x, Mode: Commutative}}}
		comms = append(comms, c)
		m.submit(c)
		if c.NPred() != 1 {
			t.Fatalf("commutative %d should depend only on the writer, npred=%d", i, c.NPred())
		}
	}
	m.runAll()
	_ = comms
}

func TestReaderAfterCommutativesWaitsForAll(t *testing.T) {
	m := newMiniExec(4, true, 21)
	x := new(int)
	m.submit(&Task{Accesses: []Access{{Key: x, Mode: Out}}})
	for i := 0; i < 3; i++ {
		m.submit(&Task{Accesses: []Access{{Key: x, Mode: Commutative}}})
	}
	r := &Task{Accesses: []Access{{Key: x, Mode: In}}}
	m.submit(r)
	// Reader depends on the 3 commutatives plus the (unfinished) writer.
	if r.NPred() != 4 {
		t.Fatalf("reader npred=%d, want 4", r.NPred())
	}
	m.runAll()
}

func TestWriterAfterCommutativesWaitsForAll(t *testing.T) {
	m := newMiniExec(4, true, 22)
	x := new(int)
	for i := 0; i < 3; i++ {
		m.submit(&Task{Accesses: []Access{{Key: x, Mode: Commutative}}})
	}
	w := &Task{Accesses: []Access{{Key: x, Mode: Out}}}
	m.submit(w)
	if w.NPred() != 3 {
		t.Fatalf("writer npred=%d, want 3", w.NPred())
	}
	// After the writer, the commuter set resets: a new commutative
	// depends only on the writer.
	c := &Task{Accesses: []Access{{Key: x, Mode: Commutative}}}
	m.submit(c)
	if c.NPred() != 1 {
		t.Fatalf("post-write commutative npred=%d, want 1", c.NPred())
	}
	m.runAll()
}

func TestCommutativeAfterReadersIsWARProtected(t *testing.T) {
	m := newMiniExec(4, true, 23)
	x := new(int)
	m.submit(&Task{Accesses: []Access{{Key: x, Mode: Out}}})
	m.submit(&Task{Accesses: []Access{{Key: x, Mode: In}}})
	m.submit(&Task{Accesses: []Access{{Key: x, Mode: In}}})
	c := &Task{Accesses: []Access{{Key: x, Mode: Commutative}}}
	m.submit(c)
	// Depends on the writer and both readers (it may write).
	if c.NPred() != 3 {
		t.Fatalf("commutative npred=%d, want 3", c.NPred())
	}
	m.runAll()
}

// TestReleaseDropsRecord: releasing the domain that interned a key erases
// the key's dependence history — the next access interns a fresh datum.
// (An executor releases only drained domains; the engine itself just
// forgets, so the writer is left in flight here to make the erasure
// observable.)
func TestReleaseDropsRecord(t *testing.T) {
	m := newMiniExec(1, true, 24)
	dom := &Domain{Scoped: true}
	x := new(int)
	m.submit(&Task{Domain: dom, Accesses: []Access{{Key: x, Mode: Out}}})
	m.g.Release(dom)
	b := &Task{Accesses: []Access{{Key: x, Mode: Out}}}
	m.submit(b)
	if b.NPred() != 0 {
		t.Fatal("Release should erase the dependence history")
	}
	m.runAll()
}

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		In: "in", Out: "out", InOut: "inout",
		Commutative: "commutative", Mode(99): "?",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
}
