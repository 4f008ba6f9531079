// Package cray is the c-ray benchmark of the suite: ray tracing a
// procedural sphere scene, parallelized over row blocks. Classified as a
// kernel in the paper's Table 1 (mean OmpSs/Pthreads speedup 1.10 — OmpSs
// slightly ahead thanks to cheap task dispatch vs. thread create/join).
package cray

import (
	"time"

	"ompssgo/internal/img"
	kern "ompssgo/internal/kernels/cray"
	"ompssgo/ompss"
	"ompssgo/pthread"
)

// Workload parameterizes one run.
type Workload struct {
	W, H     int
	Spheres  int
	Seed     int64
	RowBlock int // rows per task / per partition grain
}

// Default is the harness workload (sized so one run is milliseconds of
// virtual time, like the paper's kernels). RowBlock is small enough that
// blocks comfortably outnumber 32 threads.
func Default() Workload { return Workload{W: 256, H: 192, Spheres: 24, Seed: 3, RowBlock: 4} }

// Small is the test workload.
func Small() Workload { return Workload{W: 64, H: 48, Spheres: 8, Seed: 3, RowBlock: 8} }

// Instance is a prepared benchmark instance (immutable inputs; safe to run
// repeatedly).
type Instance struct {
	W     Workload
	scene *kern.Scene
}

// New prepares the scene.
func New(w Workload) *Instance {
	return &Instance{W: w, scene: kern.GenScene(w.Spheres, w.Seed)}
}

// Name returns the Table 1 row name.
func (in *Instance) Name() string { return "c-ray" }

// blockCost models the heterogeneous per-block work: rows covered by sphere
// projections pay extra shading and reflections, which is what makes static
// partitions imbalanced.
func (in *Instance) blockCost(lo, hi int) time.Duration {
	return in.scene.BlockCost(lo, hi, in.W.W, in.W.H)
}

// RunSeq renders sequentially and returns the output checksum.
func (in *Instance) RunSeq() uint64 {
	im := img.NewRGB(in.W.W, in.W.H)
	in.scene.Render(im)
	return im.Checksum()
}

// RunPthreads renders with a static interleaved row-block partition across
// the thread team (create/compute/join). Static assignment cannot react to
// the uneven per-block costs.
func (in *Instance) RunPthreads(main *pthread.Thread) uint64 {
	im := img.NewRGB(in.W.W, in.W.H)
	rb := max(in.W.RowBlock, 1)
	main.Parallel(func(t *pthread.Thread) {
		p := t.API().Threads()
		for lo := t.ID() * rb; lo < in.W.H; lo += p * rb {
			hi := min(lo+rb, in.W.H)
			in.scene.RenderRows(im, lo, hi)
			t.Compute(in.blockCost(lo, hi))
			t.Touch(&im.Pix[3*lo*in.W.W], int64(3*(hi-lo)*in.W.W), true)
		}
	})
	return im.Checksum()
}

// RunOmpSs renders with one task per row block, spawned on the master TC;
// the runtime's queues and stealing balance the uneven blocks dynamically.
func (in *Instance) RunOmpSs(rt ompss.API) uint64 {
	im := img.NewRGB(in.W.W, in.W.H)
	tc := rt.Master()
	rb := max(in.W.RowBlock, 1)
	for lo := 0; lo < in.W.H; lo += rb {
		hi := min(lo+rb, in.W.H)
		tc.Task(func(*ompss.TC) { in.scene.RenderRows(im, lo, hi) },
			ompss.OutSized(&im.Pix[3*lo*in.W.W], int64(3*(hi-lo)*in.W.W)),
			ompss.Cost(in.blockCost(lo, hi)),
			ompss.Label("render"))
	}
	tc.Taskwait()
	return im.Checksum()
}

// LoopUnits returns the flat iteration-space size (image rows).
func (in *Instance) LoopUnits() int { return in.W.H }

// RunOmpSsLoop renders as one TaskLoop over image rows; the chunk argument
// decides granularity (ompss.Auto defers to the runtime). The
// heterogeneous per-block cost is charged through the task context, since
// a Cost clause cannot vary across a TaskLoop's chunks.
func (in *Instance) RunOmpSsLoop(rt ompss.API, chunk int) uint64 {
	im := img.NewRGB(in.W.W, in.W.H)
	rt.Master().TaskLoop(in.W.H, chunk, func(tc *ompss.TC, lo, hi int) {
		in.scene.RenderRows(im, lo, hi)
		tc.Compute(in.blockCost(lo, hi))
		tc.Touch(&im.Pix[3*lo*in.W.W], int64(3*(hi-lo)*in.W.W), true)
	}, ompss.Label("render"))
	rt.Taskwait()
	return im.Checksum()
}
