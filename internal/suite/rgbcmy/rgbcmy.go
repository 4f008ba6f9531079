// Package rgbcmy is the rgbcmy benchmark of the suite: RGB→CMY conversion
// repeated for many iterations with a barrier between them to stabilize
// timing. One iteration is short (<20 ms on 16 cores in the paper), so the
// benchmark is dominated by barrier latency: the OmpSs polling taskwait
// beats the blocking Pthreads barrier, increasingly so at higher core counts
// (paper Table 1: 1.02 → 1.53 from 1 to 32 cores, mean 1.19).
package rgbcmy

import (
	"ompssgo/internal/blocks"
	"ompssgo/internal/img"
	kern "ompssgo/internal/kernels/color"
	"ompssgo/internal/media"
	"ompssgo/ompss"
	"ompssgo/pthread"
)

// Workload parameterizes one run.
type Workload struct {
	W, H     int
	Iters    int
	Seed     int64
	RowBlock int
}

// Default is the harness workload: very short iterations (tens of
// microseconds of parallel time at high core counts — the paper notes one
// iteration takes under 20 ms on its full-size input), many of them, so the
// per-iteration barrier/taskwait cost is what differentiates the models.
func Default() Workload { return Workload{W: 160, H: 120, Iters: 150, Seed: 5, RowBlock: 15} }

// Small is the test workload.
func Small() Workload { return Workload{W: 96, H: 64, Iters: 5, Seed: 5, RowBlock: 8} }

// Instance is a prepared benchmark instance.
type Instance struct {
	W   Workload
	src *img.RGB
}

// New generates the source image.
func New(w Workload) *Instance { return &Instance{W: w, src: media.Image(w.W, w.H, w.Seed)} }

// NewFromImage builds an instance around an existing w.W×w.H source image.
// The instance reads src and registers &src.Pix[0] as a dependence key, so
// concurrent sessions need images of their own (the serving path builds
// the image once and hands each request a clone).
func NewFromImage(w Workload, src *img.RGB) *Instance { return &Instance{W: w, src: src} }

// Source returns the instance's source image.
func (in *Instance) Source() *img.RGB { return in.src }

// Name returns the Table 1 row name.
func (in *Instance) Name() string { return "rgbcmy" }

// Class returns the paper's classification.
func (in *Instance) Class() string { return "kernel" }

// RunSeq converts sequentially, Iters times.
func (in *Instance) RunSeq() uint64 {
	dst := kern.NewCMY(in.W.W, in.W.H)
	for it := 0; it < in.W.Iters; it++ {
		kern.RGBToCMY(dst, in.src)
	}
	return dst.Checksum()
}

// RunPthreads runs one SPMD region; each iteration converts a static row
// partition and meets at a blocking thread barrier — the expensive pattern
// the paper identifies.
func (in *Instance) RunPthreads(main *pthread.Thread) uint64 {
	dst := kern.NewCMY(in.W.W, in.W.H)
	api := main.API()
	bar := api.NewBarrier(api.Threads())
	bl := blocks.Ranges(in.W.H, in.W.RowBlock)
	// The working set (a few hundred KB) is LLC-resident after the first
	// iteration, so the kernel cost already includes its memory time and
	// no cold-traffic footprints are declared.
	main.Parallel(func(t *pthread.Thread) {
		p := t.API().Threads()
		for it := 0; it < in.W.Iters; it++ {
			for b := t.ID(); b < len(bl); b += p {
				lo, hi := bl[b][0], bl[b][1]
				kern.RGBToCMYRows(dst, in.src, lo, hi)
				t.Compute(kern.RowsCost((hi - lo) * in.W.W))
			}
			t.Barrier(bar)
		}
	})
	return dst.Checksum()
}

// RunOmpSs spawns row-block tasks per iteration and separates iterations
// with a polling taskwait (the OmpSs task barrier).
func (in *Instance) RunOmpSs(rt ompss.API) uint64 {
	dst := kern.NewCMY(in.W.W, in.W.H)
	bl := blocks.Ranges(in.W.H, in.W.RowBlock)
	// The source and the per-block destination keys recur every iteration:
	// register them once and submit through the handles.
	src := rt.Register(&in.src.Pix[0])
	rowKeys := make([]*ompss.Datum, len(bl))
	for i, b := range bl {
		rowKeys[i] = rt.Register(&dst.C.Pix[b[0]*in.W.W])
	}
	for it := 0; it < in.W.Iters; it++ {
		for i, b := range bl {
			lo, hi := b[0], b[1]
			rows := hi - lo
			rt.Task(func(*ompss.TC) { kern.RGBToCMYRows(dst, in.src, lo, hi) },
				ompss.In(src),
				ompss.Out(rowKeys[i]),
				ompss.Cost(kern.RowsCost(rows*in.W.W)),
				ompss.Label("rgbcmy"))
		}
		rt.Taskwait()
	}
	return dst.Checksum()
}
