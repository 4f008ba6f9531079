package ompss

import (
	"testing"
	"time"

	"ompssgo/machine"
)

func TestNativeRegionBlockedStencil(t *testing.T) {
	// Blocked in-place update: each block writes its own section and reads
	// its left neighbour's — disjoint writes run in parallel, overlapping
	// read/write pairs chain. No manual per-block keys needed.
	rt := New(Workers(4))
	defer rt.Shutdown()
	const n, bs = 64, 16
	data := make([]int, n)
	base := &data[0]
	for b := 0; b < n/bs; b++ {
		lo, hi := int64(b*bs), int64((b+1)*bs)
		rt.Task(func(*TC) {
			for i := lo; i < hi; i++ {
				data[i] = int(i)
			}
		}, Out(rt.RegisterRegion(base, lo, hi)))
	}
	// Second wave: block b reads [lo-1, hi) — one element of the previous
	// block — forcing a left-to-right chain of pairwise dependences.
	for b := 0; b < n/bs; b++ {
		lo, hi := int64(b*bs), int64((b+1)*bs)
		rlo := lo - 1
		if rlo < 0 {
			rlo = 0
		}
		rt.Task(func(*TC) {
			left := 0
			if lo > 0 {
				left = data[lo-1]
			}
			for i := lo; i < hi; i++ {
				data[i] += left
			}
		}, In(rt.RegisterRegion(base, rlo, lo+1)), InOut(rt.RegisterRegion(base, lo, hi)))
	}
	rt.Taskwait()
	// Verify against the sequential recurrence.
	want := make([]int, n)
	for i := range want {
		want[i] = i
	}
	for b := 0; b < n/bs; b++ {
		lo := b * bs
		left := 0
		if lo > 0 {
			left = want[lo-1]
		}
		for i := lo; i < lo+bs; i++ {
			want[i] += left
		}
	}
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("data[%d] = %d, want %d", i, data[i], want[i])
		}
	}
}

func TestNativeTaskwaitOnRegion(t *testing.T) {
	rt := New(Workers(2))
	defer rt.Shutdown()
	data := make([]int, 32)
	base := &data[0]
	rt.Task(func(*TC) {
		time.Sleep(2 * time.Millisecond)
		for i := 0; i < 16; i++ {
			data[i] = 1
		}
	}, Out(rt.RegisterRegion(base, 0, 16)))
	rt.Task(func(*TC) {
		for i := 16; i < 32; i++ {
			data[i] = 2
		}
	}, Out(rt.RegisterRegion(base, 16, 32)))
	// Waiting on the second half must not require the slow first half.
	rt.TaskwaitOn(rt.RegisterRegion(base, 16, 32))
	if data[31] != 2 {
		t.Fatal("taskwait on region returned before its writer finished")
	}
	rt.TaskwaitOn(rt.RegisterRegion(base, 0, 32)) // now both
	if data[0] != 1 {
		t.Fatal("whole-array region wait missed the first writer")
	}
}

func TestSimRegionsParallelize(t *testing.T) {
	// Disjoint sections on 8 cores should overlap; a single whole-array
	// key would serialize the same tasks.
	sections := func(disjoint bool) time.Duration {
		st, err := RunSim(machine.Paper(8), func(rt *Runtime) {
			data := make([]int, 8*1024)
			base := &data[0]
			for b := 0; b < 8; b++ {
				lo, hi := int64(b*1024), int64((b+1)*1024)
				if !disjoint {
					lo, hi = 0, 8*1024 // everyone claims the whole array
				}
				b := b
				rt.Task(func(*TC) { data[b*1024] = b },
					Out(rt.RegisterRegion(base, lo, hi)), Cost(500*time.Microsecond))
			}
			rt.Taskwait()
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Makespan
	}
	par, serial := sections(true), sections(false)
	if float64(serial)/float64(par) < 4 {
		t.Fatalf("disjoint sections should parallelize: %v vs %v", par, serial)
	}
}
