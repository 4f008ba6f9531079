// Package rgbcmy is the rgbcmy benchmark of the suite: RGB→CMY conversion
// repeated for many iterations with a barrier between them to stabilize
// timing. One iteration is short (<20 ms on 16 cores in the paper), so the
// benchmark is dominated by barrier latency: the OmpSs polling taskwait
// beats the blocking Pthreads barrier, increasingly so at higher core counts
// (paper Table 1: 1.02 → 1.53 from 1 to 32 cores, mean 1.19).
package rgbcmy

import (
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
	cmy *kern.CMY // the OmpSs variant's planes, reused across runs
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

// ompssCMY returns the OmpSs variant's output planes, allocated on the
// first run and zeroed on every later one, so a block no task wrote reads
// zero, as in fresh planes, and never last run's answer.
func (in *Instance) ompssCMY() *kern.CMY {
	if in.cmy == nil {
		in.cmy = kern.NewCMY(in.W.W, in.W.H)
	} else {
		clear(in.cmy.C.Pix)
		clear(in.cmy.M.Pix)
		clear(in.cmy.Y.Pix)
	}
	return in.cmy
}

// Name returns the Table 1 row name.
func (in *Instance) Name() string { return "rgbcmy" }

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
	rb := max(in.W.RowBlock, 1)
	// The working set (a few hundred KB) is LLC-resident after the first
	// iteration, so the kernel cost already includes its memory time and
	// no cold-traffic footprints are declared.
	main.Parallel(func(t *pthread.Thread) {
		p := t.API().Threads()
		for it := 0; it < in.W.Iters; it++ {
			for lo := t.ID() * rb; lo < in.W.H; lo += p * rb {
				hi := min(lo+rb, in.W.H)
				kern.RGBToCMYRows(dst, in.src, lo, hi)
				t.Compute(kern.RowsCost((hi - lo) * in.W.W))
			}
			t.Barrier(bar)
		}
	})
	return dst.Checksum()
}

// RunOmpSs spawns row-block tasks per iteration on the master TC and
// separates iterations with a polling taskwait (the OmpSs task barrier).
func (in *Instance) RunOmpSs(rt ompss.API) uint64 {
	dst := in.ompssCMY()
	rb := max(in.W.RowBlock, 1)
	// The source and the per-block destination keys recur every iteration:
	// register them once and submit through the handles.
	src := rt.Register(&in.src.Pix[0])
	rowKeys := make([]*ompss.Datum, 0, (in.W.H+rb-1)/rb)
	for lo := 0; lo < in.W.H; lo += rb {
		rowKeys = append(rowKeys, rt.Register(&dst.C.Pix[lo*in.W.W]))
	}
	tc := rt.Master()
	for it := 0; it < in.W.Iters; it++ {
		for i, key := range rowKeys {
			lo := i * rb
			hi := min(lo+rb, in.W.H)
			tc.Task(func(*ompss.TC) { kern.RGBToCMYRows(dst, in.src, lo, hi) },
				ompss.In(src),
				ompss.Out(key),
				ompss.Cost(kern.RowsCost((hi-lo)*in.W.W)),
				ompss.Label("rgbcmy"))
		}
		tc.Taskwait()
	}
	return dst.Checksum()
}
