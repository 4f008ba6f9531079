package ompss_test

import (
	"errors"
	"fmt"
	"testing"

	"ompssgo/machine"
	"ompssgo/ompss"
)

// tile is the payload the renaming tests version: big enough that a missed
// copy or a torn writeback shows up in the checksum, padded so instances
// on the pool do not false-share.
type tile struct {
	v [8]int64
	_ [64]byte
}

func tileAlloc() any        { return new(tile) }
func tileCopy(dst, src any) { dst.(*tile).v = src.(*tile).v }
func (t *tile) fill(base int64) {
	for i := range t.v {
		t.v[i] = base + int64(i)
	}
}
func (t *tile) sum() int64 {
	var s int64
	for _, x := range t.v {
		s += x
	}
	return s
}

// runWARPipeline runs `rounds` of (readers observe the previous round's
// value, then an Out writer publishes the next) against one renameable
// datum and returns the violations. With renaming the rounds overlap; with
// it off they serialize — the observed values must be identical either way.
func runWARPipeline(rt *ompss.Runtime, readers, rounds int) []string {
	var cell tile
	cell.fill(0)
	d := rt.Register(&cell).EnableRenaming(nil, tileAlloc, tileCopy)

	var mu struct{ violations []string } // guarded by runtime: appended under task errors only
	violate := make(chan string, readers*rounds+rounds+2)
	for round := 0; round < rounds; round++ {
		round := round
		for r := 0; r < readers; r++ {
			rt.Task(func(tc *ompss.TC) {
				got := tc.Data(d).(*tile)
				if want := int64(round) * 8; got.sum() != want+28 { // base*8 + 0..7
					violate <- fmt.Sprintf("round %d reader saw sum %d, want %d", round, got.sum(), want+28)
				}
			}, ompss.In(d))
		}
		rt.Task(func(tc *ompss.TC) {
			tc.Data(d).(*tile).fill(int64(round) + 1)
		}, ompss.Out(d))
	}
	rt.Taskwait()
	if got, want := cell.sum(), int64(rounds)*8+28; got != want {
		violate <- fmt.Sprintf("final canonical sum %d, want %d (writeback missing or stale)", got, want)
	}
	close(violate)
	for v := range violate {
		mu.violations = append(mu.violations, v)
	}
	return mu.violations
}

func TestRenameWARPipelineNative(t *testing.T) {
	for _, renaming := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("renaming=%v/w%d", renaming, workers), func(t *testing.T) {
				rt := ompss.New(ompss.Workers(workers), ompss.WithTuning(ompss.Tuning{Renaming: onOff(renaming)}))
				defer rt.Shutdown()
				if vs := runWARPipeline(rt, 3, 25); len(vs) > 0 {
					t.Fatalf("%d violations; first: %s", len(vs), vs[0])
				}
				st := rt.Stats()
				if renaming && workers > 1 && st.Graph.Renamed == 0 {
					t.Error("expected at least one rename in the WAR pipeline")
				}
				if !renaming && st.Graph.Renamed != 0 {
					t.Errorf("renaming off but Renamed = %d", st.Graph.Renamed)
				}
			})
		}
	}
}

func TestRenameWARPipelineSim(t *testing.T) {
	for _, renaming := range []bool{false, true} {
		t.Run(fmt.Sprintf("renaming=%v", renaming), func(t *testing.T) {
			var vs []string
			_, err := ompss.RunSim(machine.Paper(4), func(rt *ompss.Runtime) {
				vs = runWARPipeline(rt, 3, 25)
			}, ompss.WithTuning(ompss.Tuning{Renaming: onOff(renaming)}))
			if err != nil {
				t.Fatal(err)
			}
			if len(vs) > 0 {
				t.Fatalf("%d violations; first: %s", len(vs), vs[0])
			}
		})
	}
}

// Renamed InOut: the accumulator chain must see every predecessor's value
// (copy-in) while readers of older instances keep observing them.
func TestRenameInOutAccumulates(t *testing.T) {
	rt := ompss.New(ompss.Workers(4), ompss.WithTuning(ompss.Tuning{Renaming: ompss.On}))
	defer rt.Shutdown()
	var cell tile
	d := rt.Register(&cell).EnableRenaming(nil, tileAlloc, tileCopy)

	const rounds = 30
	for i := 0; i < rounds; i++ {
		i := i
		rt.Task(func(tc *ompss.TC) {
			got := tc.Data(d).(*tile)
			if got.v[0] != int64(i) {
				t.Errorf("round %d reader saw %d", i, got.v[0])
			}
		}, ompss.In(d))
		rt.Task(func(tc *ompss.TC) {
			tc.Data(d).(*tile).v[0]++
		}, ompss.InOut(d))
	}
	rt.Taskwait()
	if cell.v[0] != rounds {
		t.Fatalf("accumulator = %d, want %d", cell.v[0], rounds)
	}
}

// A failed renamed writer must not publish its instance; the canonical
// value stays at the last successful round, and dependents skip.
func TestRenameFailedWriterSkipsWriteback(t *testing.T) {
	rt := ompss.New(ompss.Workers(2), ompss.WithTuning(ompss.Tuning{Renaming: ompss.On}))
	defer rt.Shutdown()
	var cell tile
	cell.fill(1)
	d := rt.Register(&cell).EnableRenaming(nil, tileAlloc, tileCopy)
	boom := errors.New("boom")

	// The gate holds the reader in flight until the writer has submitted,
	// so the writer is guaranteed to see the WAR conflict and rename —
	// without it a fast reader lets the writer (correctly) take the
	// in-place path and this test would assert the wrong semantics.
	gate := make(chan struct{})
	rt.Task(func(tc *ompss.TC) {
		<-gate
		_ = tc.Data(d).(*tile).sum()
	}, ompss.In(d))
	h := rt.Go(func(tc *ompss.TC) error {
		tc.Data(d).(*tile).fill(99)
		return boom
	}, ompss.Out(d))
	dep := rt.Go(func(tc *ompss.TC) error { return nil }, ompss.In(d))
	close(gate)
	rt.Taskwait()
	if got := rt.Stats().Graph.Renamed; got != 1 {
		t.Fatalf("Renamed = %d, want 1 (the gated reader forces the conflict)", got)
	}
	if !errors.Is(h.Err(), boom) {
		t.Fatalf("writer outcome = %v", h.Err())
	}
	if !errors.Is(dep.Err(), ompss.ErrSkipped) {
		t.Fatalf("dependent outcome = %v, want skip", dep.Err())
	}
	if got := cell.sum(); got != 8+28 {
		t.Fatalf("canonical sum = %d: a poisoned instance leaked into the writeback", got)
	}
	_ = rt.Err()
}

// TaskwaitOn over a renamed datum is a flush: on return the canonical
// storage holds the latest instance.
func TestRenameTaskwaitOnFlushes(t *testing.T) {
	rt := ompss.New(ompss.Workers(4), ompss.WithTuning(ompss.Tuning{Renaming: ompss.On}))
	defer rt.Shutdown()
	var cell tile
	d := rt.Register(&cell).EnableRenaming(nil, tileAlloc, tileCopy)
	for i := 0; i < 10; i++ {
		rt.Task(func(tc *ompss.TC) { _ = tc.Data(d).(*tile).sum() }, ompss.In(d))
		i := i
		rt.Task(func(tc *ompss.TC) { tc.Data(d).(*tile).fill(int64(i)) }, ompss.Out(d))
	}
	rt.TaskwaitOn(d)
	if cell.v[0] != 9 {
		t.Fatalf("after TaskwaitOn canonical = %d, want 9 (flush incomplete)", cell.v[0])
	}
	rt.Taskwait()
}

// tc.Data degrades to the registered key on datums that never enabled
// renaming, so bodies can use it unconditionally.
func TestDataDegradesToKey(t *testing.T) {
	rt := ompss.New(ompss.Workers(1))
	defer rt.Shutdown()
	x := new(int64)
	d := rt.Register(x)
	rt.Task(func(tc *ompss.TC) {
		if tc.Data(d).(*int64) != x {
			t.Error("Data on an unchained datum must return the key")
		}
	}, ompss.InOut(d))
	rt.Taskwait()
}
