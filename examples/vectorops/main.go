// Vectorops: array-section dependences and taskloop — the OmpSs features
// beyond the paper's Listing 1, shown on a blocked vector pipeline.
//
// Run with: go run ./examples/vectorops
//
// A three-stage computation over one array (fill → scale blocks → prefix
// combine) annotated purely with array sections (RegisterRegion handles):
// the runtime discovers that disjoint blocks parallelize and overlapping
// stages chain, with no manual per-block keys. A commutative histogram
// accumulation runs on the side: order-free, mutually exclusive, still
// ordered against the final reader.
package main

import (
	"fmt"
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
	base := &data[0]

	// Each block section is touched by three stages: register one region
	// handle per block (plus the histogram key) and submit through them.
	// Handles with other spans over the same base interoperate — stage 3's
	// overlap reads below register their own one-element sections.
	blockD := make([]*ompss.Datum, n/bs)
	for b := range blockD {
		blockD[b] = rt.RegisterRegion(base, int64(b*bs), int64((b+1)*bs))
	}
	histD := rt.Register(&hist[0])

	// Stage 1: taskloop fill, one section write per chunk.
	rt.TaskLoop(n, bs, func(_ *ompss.TC, lo, hi int) {
		for i := lo; i < hi; i++ {
			data[i] = float64(i % 97)
		}
	})
	// TaskLoop tasks above carry no clauses (chunks are independent);
	// stage 2 must wait for them, so use an explicit barrier here.
	rt.Taskwait()

	// Stage 2: per-block scale, declared through the region handles.
	for b := 0; b < n/bs; b++ {
		lo, hi := int64(b*bs), int64((b+1)*bs)
		rt.Task(func(*ompss.TC) {
			for i := lo; i < hi; i++ {
				data[i] *= 1.5
			}
		}, ompss.InOut(blockD[b]))
	}

	// Stage 3: each block adds its left neighbour's last element — the
	// one-element overlap chains blocks left to right while stage 2 of
	// later blocks still overlaps stage 3 of earlier ones.
	for b := 0; b < n/bs; b++ {
		lo, hi := int64(b*bs), int64((b+1)*bs)
		rlo := lo - 1
		if rlo < 0 {
			rlo = 0
		}
		rt.Task(func(*ompss.TC) {
			var left float64
			if lo > 0 {
				left = data[lo-1]
			}
			for i := lo; i < hi; i++ {
				data[i] += left
			}
		}, ompss.In(rt.RegisterRegion(base, rlo, lo+1)), ompss.InOut(blockD[b]))
	}

	// Side channel: commutative histogram updates (order-free, mutually
	// exclusive) over the final blocks.
	for b := 0; b < n/bs; b++ {
		lo, hi := int64(b*bs), int64((b+1)*bs)
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

	fmt.Printf("pipeline over %d elements: %d tasks, %d dependence edges\n",
		n, st.Graph.Finished, st.Graph.Edges)
	fmt.Printf("histogram total = %d (want %d), data[last] = %.1f\n", *total, n, data[n-1])

	// The same dataflow on the simulated 16-core machine.
	stats, err := ompss.RunSim(machine.Paper(16), func(rt *ompss.Runtime) {
		d2 := make([]float64, n)
		b2 := &d2[0]
		for b := 0; b < n/bs; b++ {
			lo, hi := int64(b*bs), int64((b+1)*bs)
			rt.Task(func(*ompss.TC) {
				for i := lo; i < hi; i++ {
					d2[i] = float64(i) * 1.5
				}
			}, ompss.Out(rt.RegisterRegion(b2, lo, hi)), ompss.Cost(200*time.Microsecond))
		}
		rt.Taskwait()
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("sim 16 cores: %v makespan, %.0f%% utilization\n",
		stats.Makespan, stats.Utilization*100)
}
