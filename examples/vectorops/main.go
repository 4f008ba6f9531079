// Vectorops: per-block data handles, a loop of tasks and a commutative
// reduction — the OmpSs features beyond the paper's Listing 1, shown on a
// blocked vector pipeline.
//
// Run with: go run ./examples/vectorops
//
// A three-stage computation over one array (fill → scale blocks → prefix
// combine) annotated with one registered handle per block: disjoint blocks
// parallelize, and stage 3's read of the left neighbour's last element is an
// In on that neighbour's block, which chains the blocks left to right. A
// commutative histogram accumulation runs on the side: order-free, mutually
// exclusive, still ordered against the final reader. The program checks its
// result against a sequential recomputation and exits non-zero on mismatch.
package main

import (
	"fmt"
	"os"
	"time"

	"ompssgo/machine"
	"ompssgo/ompss"
)

const (
	n  = 1 << 14
	bs = 1 << 10
)

func main() {
	rt := ompss.New(ompss.Workers(4))
	data := make([]float64, n)
	hist := make([]int, 8)

	// Each block is touched by three stages: register one handle per block
	// (plus the histogram key) and submit through them.
	blockD := make([]*ompss.Datum, n/bs)
	for b := range blockD {
		blockD[b] = rt.Register(&data[b*bs])
	}
	histD := rt.Register(&hist[0])

	// Stage 1: fill, one task per block. The tasks carry no clauses (the
	// blocks are independent); stage 2 must wait for them, so use an
	// explicit barrier here.
	for lo := 0; lo < n; lo += bs {
		rt.Task(func(*ompss.TC) {
			for i := lo; i < lo+bs; i++ {
				data[i] = float64(i % 97)
			}
		})
	}
	rt.Taskwait()

	// Stage 2: per-block scale.
	for b := 0; b < n/bs; b++ {
		lo, hi := b*bs, (b+1)*bs
		rt.Task(func(*ompss.TC) {
			for i := lo; i < hi; i++ {
				data[i] *= 1.5
			}
		}, ompss.InOut(blockD[b]))
	}

	// Stage 3: each block adds its left neighbour's last element — the halo
	// read chains blocks left to right while stage 2 of later blocks still
	// overlaps stage 3 of earlier ones.
	for b := 0; b < n/bs; b++ {
		lo, hi := b*bs, (b+1)*bs
		clauses := []ompss.Clause{ompss.InOut(blockD[b])}
		if b > 0 {
			clauses = append(clauses, ompss.In(blockD[b-1]))
		}
		rt.Task(func(*ompss.TC) {
			var left float64
			if lo > 0 {
				left = data[lo-1]
			}
			for i := lo; i < hi; i++ {
				data[i] += left
			}
		}, clauses...)
	}

	// Side channel: commutative histogram updates (order-free, mutually
	// exclusive) over the final blocks.
	for b := 0; b < n/bs; b++ {
		lo, hi := b*bs, (b+1)*bs
		rt.Task(func(*ompss.TC) {
			for i := lo; i < hi; i++ {
				hist[int(data[i])%len(hist)]++
			}
		}, ompss.In(blockD[b]), ompss.Commutative(histD))
	}

	total := new(int)
	rt.Task(func(*ompss.TC) {
		for _, v := range hist {
			*total += v
		}
	}, ompss.In(histD), ompss.Out(total))
	rt.Taskwait()
	st := rt.Stats()
	rt.Shutdown()

	want := sequential()
	fmt.Printf("pipeline over %d elements: %d tasks\n", n, st.Graph.Finished)
	fmt.Printf("histogram total = %d (want %d), data[last] = %.1f (want %.1f)\n",
		*total, n, data[n-1], want)
	if *total != n || data[n-1] != want {
		fmt.Fprintln(os.Stderr, "vectorops: result differs from the sequential recomputation")
		os.Exit(1)
	}

	// The same dataflow on the simulated 16-core machine.
	stats, err := ompss.RunSim(machine.Paper(16), func(rt *ompss.Runtime) {
		d2 := make([]float64, n)
		for b := 0; b < n/bs; b++ {
			lo, hi := b*bs, (b+1)*bs
			rt.Task(func(*ompss.TC) {
				for i := lo; i < hi; i++ {
					d2[i] = float64(i) * 1.5
				}
			}, ompss.Out(rt.Register(&d2[lo])), ompss.Cost(200*time.Microsecond))
		}
		rt.Taskwait()
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("sim 16 cores: %v makespan, %.0f%% utilization\n",
		stats.Makespan, stats.Utilization*100)
}

// sequential recomputes the pipeline's last element in program order.
func sequential() float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = float64(i%97) * 1.5
	}
	for lo := bs; lo < n; lo += bs {
		left := d[lo-1]
		for i := lo; i < lo+bs; i++ {
			d[i] += left
		}
	}
	return d[n-1]
}
