package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// on builds one region access through a RegisterRegion handle — the one way
// an array section reaches the tracker.
func (m *miniExec) on(base any, lo, hi int64, mode Mode) Access {
	d := m.g.RegisterRegion(base, lo, hi)
	return Access{Key: d.Key, Mode: mode, Datum: d}
}

func reg(base any, lo, hi int64) Region { return Region{Base: base, Lo: lo, Hi: hi} }

func TestRegionDisjointWritesAreParallel(t *testing.T) {
	m := newMiniExec(4, true, 1)
	base := new(int)
	a := &Task{Accesses: []Access{m.on(base, 0, 10, Out)}}
	b := &Task{Accesses: []Access{m.on(base, 10, 20, Out)}}
	m.submit(a)
	m.submit(b)
	if a.NPred() != 0 || b.NPred() != 0 {
		t.Fatalf("disjoint sections must not conflict: %d, %d", a.NPred(), b.NPred())
	}
	m.runAll()
}

func TestRegionOverlapSerializes(t *testing.T) {
	m := newMiniExec(4, true, 2)
	base := new(int)
	a := &Task{Accesses: []Access{m.on(base, 0, 10, Out)}}
	b := &Task{Accesses: []Access{m.on(base, 5, 15, Out)}}
	m.submit(a)
	m.submit(b)
	if b.NPred() != 1 {
		t.Fatalf("overlapping writes must serialize, npred=%d", b.NPred())
	}
	m.runAll()
	if pos(m.order, a) > pos(m.order, b) {
		t.Fatal("WAW order violated across sections")
	}
}

func TestRegionReadersShareThenWriterWaits(t *testing.T) {
	m := newMiniExec(4, true, 3)
	base := new(int)
	w := &Task{Accesses: []Access{m.on(base, 0, 100, Out)}}
	m.submit(w)
	r1 := &Task{Accesses: []Access{m.on(base, 0, 50, In)}}
	r2 := &Task{Accesses: []Access{m.on(base, 50, 100, In)}}
	m.submit(r1)
	m.submit(r2)
	if r1.NPred() != 1 || r2.NPred() != 1 {
		t.Fatalf("readers depend only on the covering writer: %d, %d", r1.NPred(), r2.NPred())
	}
	// A writer over [25, 75) must wait for both readers (WAR) and the
	// original writer is finished-agnostic via dedup.
	w2 := &Task{Accesses: []Access{m.on(base, 25, 75, Out)}}
	m.submit(w2)
	if w2.NPred() != 3 {
		t.Fatalf("partial overwrite npred=%d, want 3 (writer + 2 readers)", w2.NPred())
	}
	m.runAll()
}

func TestRegionPartialOverwriteKeepsRest(t *testing.T) {
	m := newMiniExec(2, true, 4)
	base := new(int)
	w1 := &Task{Accesses: []Access{m.on(base, 0, 100, Out)}}
	m.submit(w1)
	w2 := &Task{Accesses: []Access{m.on(base, 0, 50, Out)}}
	m.submit(w2)
	// A reader of the untouched half depends on w1 only.
	r := &Task{Accesses: []Access{m.on(base, 50, 100, In)}}
	m.submit(r)
	if r.NPred() != 1 {
		t.Fatalf("reader of untouched half npred=%d, want 1", r.NPred())
	}
	if len(m.g.Writers(reg(base, 0, 100))) != 2 {
		t.Fatalf("writers over whole = %d, want 2", len(m.g.Writers(reg(base, 0, 100))))
	}
	m.runAll()
	if len(m.g.Writers(reg(base, 0, 100))) != 0 {
		t.Fatal("finished writers must not be reported")
	}
}

func TestRegionDistinctBasesIndependent(t *testing.T) {
	m := newMiniExec(2, true, 5)
	b1, b2 := new(int), new(int)
	a := &Task{Accesses: []Access{m.on(b1, 0, 10, Out)}}
	b := &Task{Accesses: []Access{m.on(b2, 0, 10, Out)}}
	m.submit(a)
	m.submit(b)
	if b.NPred() != 0 {
		t.Fatal("different bases must not conflict")
	}
	m.runAll()
}

func TestRegionEmptySpanIgnored(t *testing.T) {
	m := newMiniExec(1, true, 6)
	base := new(int)
	a := &Task{Accesses: []Access{m.on(base, 5, 5, Out)}}
	m.submit(a)
	b := &Task{Accesses: []Access{m.on(base, 0, 10, Out)}}
	m.submit(b)
	if b.NPred() != 0 {
		t.Fatal("empty span must create no dependences")
	}
	m.runAll()
}

func TestWritersExactKeyCompat(t *testing.T) {
	m := newMiniExec(1, true, 7)
	x := new(int)
	a := &Task{Accesses: []Access{{Key: x, Mode: Out}}}
	m.submit(a)
	if ws := m.g.Writers(x); len(ws) != 1 || ws[0] != a {
		t.Fatalf("exact-key Writers = %v", ws)
	}
	m.runAll()
}

// TestRegionElementOracleProperty is the region engine's central
// correctness property: random programs of section accesses over a small
// array must make every reader observe, per element, exactly the value its
// program-order last writer produced — checked against real slice contents.
func TestRegionElementOracleProperty(t *testing.T) {
	f := func(seed int64, nTasks uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 24
		data := make([]uint32, size)    // real contents: writer ids
		version := make([]uint32, size) // program-order oracle
		base := &data[0]
		m := newMiniExec(3, rng.Intn(2) == 0, seed)
		ok := true
		nt := int(nTasks%30) + 5
		for id := uint32(1); id <= uint32(nt); id++ {
			lo := int64(rng.Intn(size))
			hi := lo + int64(rng.Intn(size-int(lo))) + 1
			mode := []Mode{In, Out, InOut}[rng.Intn(3)]
			expect := make([]uint32, hi-lo)
			if mode == In || mode == InOut {
				copy(expect, version[lo:hi])
			}
			if mode == Out || mode == InOut {
				for i := lo; i < hi; i++ {
					version[i] = id
				}
			}
			id := id
			lo2, hi2 := lo, hi
			tk := &Task{
				Accesses: []Access{m.on(base, lo, hi, mode)},
				Owner: func() error {
					if mode == In || mode == InOut {
						for i := lo2; i < hi2; i++ {
							if data[i] != expect[i-lo2] {
								ok = false
							}
						}
					}
					if mode == Out || mode == InOut {
						for i := lo2; i < hi2; i++ {
							data[i] = id
						}
					}
					return nil
				},
			}
			m.submit(tk)
		}
		m.runAll()
		return ok && m.g.Unfinished() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
