// Package rotate is the rotate benchmark of the suite: bilinear rotation of
// a synthetic image, parallelized over destination row blocks (kernel class;
// paper Table 1 mean 1.01 — a wash, with Pthreads ahead at 32 cores where
// task overhead on the tiny per-row work bites).
package rotate

import (
	"ompssgo/internal/img"
	kern "ompssgo/internal/kernels/rotate"
	"ompssgo/internal/media"
	"ompssgo/ompss"
	"ompssgo/pthread"
)

// Workload parameterizes one run.
type Workload struct {
	W, H     int
	Angle    float64
	Seed     int64
	RowBlock int
}

// Default is the harness workload.
func Default() Workload { return Workload{W: 1024, H: 768, Angle: 0.5, Seed: 4, RowBlock: 16} }

// Small is the test workload.
func Small() Workload { return Workload{W: 96, H: 64, Angle: 0.5, Seed: 4, RowBlock: 8} }

// Instance is a prepared benchmark instance.
type Instance struct {
	W   Workload
	src *img.RGB
	dst *img.RGB // the OmpSs variants' destination, reused across runs
}

// New generates the source image.
func New(w Workload) *Instance { return &Instance{W: w, src: media.Image(w.W, w.H, w.Seed)} }

// NewFromImage builds an instance around an existing w.W×w.H source image.
// The instance reads src and registers &src.Pix[0] as a dependence key, so
// instances held by concurrent sessions need images of their own (the
// serving path builds the image once and gives each instance it keeps a
// clone).
func NewFromImage(w Workload, src *img.RGB) *Instance { return &Instance{W: w, src: src} }

// Source returns the instance's source image.
func (in *Instance) Source() *img.RGB { return in.src }

// ompssDst returns the OmpSs variants' destination image, allocated on the
// first run and zeroed on every later one, so a row no task wrote reads
// black, as in a fresh image, and never last run's answer.
func (in *Instance) ompssDst() *img.RGB {
	if in.dst == nil {
		in.dst = img.NewRGB(in.W.W, in.W.H)
	} else {
		clear(in.dst.Pix)
	}
	return in.dst
}

// Name returns the Table 1 row name.
func (in *Instance) Name() string { return "rotate" }

// RunSeq rotates sequentially.
func (in *Instance) RunSeq() uint64 {
	dst := img.NewRGB(in.W.W, in.W.H)
	kern.Rotate(dst, in.src, in.W.Angle)
	return dst.Checksum()
}

// RunPthreads rotates with a static interleaved row-block partition.
func (in *Instance) RunPthreads(main *pthread.Thread) uint64 {
	dst := img.NewRGB(in.W.W, in.W.H)
	rb := max(in.W.RowBlock, 1)
	main.Parallel(func(t *pthread.Thread) {
		p := t.API().Threads()
		for lo := t.ID() * rb; lo < in.W.H; lo += p * rb {
			hi := min(lo+rb, in.W.H)
			kern.Rows(dst, in.src, in.W.Angle, lo, hi)
			t.Compute(kern.RowsCost((hi - lo) * in.W.W))
			t.Touch(&in.src.Pix[0], int64(3*(hi-lo)*in.W.W), false)
			t.Touch(&dst.Pix[3*lo*in.W.W], int64(3*(hi-lo)*in.W.W), true)
		}
	})
	return dst.Checksum()
}

// RunOmpSs rotates with one task per destination row block, spawned on the
// master TC. The shared source image is a registered data handle: every
// block task reads it, so the handle takes the key hash and shard lookup
// off each submission.
func (in *Instance) RunOmpSs(rt ompss.API) uint64 {
	dst := in.ompssDst()
	src := rt.Register(&in.src.Pix[0])
	tc := rt.Master()
	rb := max(in.W.RowBlock, 1)
	for lo := 0; lo < in.W.H; lo += rb {
		hi := min(lo+rb, in.W.H)
		rows := hi - lo
		tc.Task(func(*ompss.TC) { kern.Rows(dst, in.src, in.W.Angle, lo, hi) },
			ompss.InSized(src, int64(3*rows*in.W.W)),
			ompss.OutSized(&dst.Pix[3*lo*in.W.W], int64(3*rows*in.W.W)),
			ompss.Cost(kern.RowsCost(rows*in.W.W)),
			ompss.Label("rotate"))
	}
	tc.Taskwait()
	return dst.Checksum()
}

// LoopUnits returns the flat iteration-space size (destination rows).
func (in *Instance) LoopUnits() int { return in.W.H }

// RunOmpSsLoop rotates as one TaskLoop over destination rows: the chunk
// argument — not the workload's RowBlock — decides task granularity, which
// is what the grain-ablation harness sweeps (chunk == ompss.Auto hands the
// decision to the runtime). Simulated compute and
// memory costs are charged per chunk through the task context, since Cost
// clauses cannot vary across a TaskLoop's chunks.
func (in *Instance) RunOmpSsLoop(rt ompss.API, chunk int) uint64 {
	dst := in.ompssDst()
	rt.Master().TaskLoop(in.W.H, chunk, func(tc *ompss.TC, lo, hi int) {
		kern.Rows(dst, in.src, in.W.Angle, lo, hi)
		tc.Compute(kern.RowsCost((hi - lo) * in.W.W))
		tc.Touch(&in.src.Pix[0], int64(3*(hi-lo)*in.W.W), false)
		tc.Touch(&dst.Pix[3*lo*in.W.W], int64(3*(hi-lo)*in.W.W), true)
	}, ompss.Label("rotate"))
	rt.Taskwait()
	return dst.Checksum()
}
