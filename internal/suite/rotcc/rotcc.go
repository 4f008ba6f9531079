// Package rotcc is the rot-cc benchmark of the suite: rotation feeding
// RGB→CMYK color conversion over a frame set — the same producer→consumer
// pipeline shape as ray-rot but with a cheaper consumer, so the locality
// advantage is present but smaller (paper Table 1 mean 1.08).
package rotcc

import (
	"ompssgo/internal/check"
	"ompssgo/internal/img"
	kcolor "ompssgo/internal/kernels/color"
	krot "ompssgo/internal/kernels/rotate"
	"ompssgo/internal/media"
	"ompssgo/ompss"
	"ompssgo/pthread"
)

// Workload parameterizes one run.
type Workload struct {
	Frames int
	W, H   int
	Angle  float64
	Seed   int64
}

// Default is the harness workload.
func Default() Workload { return Workload{Frames: 48, W: 320, H: 240, Angle: 0.15, Seed: 9} }

// Small is the test workload.
func Small() Workload { return Workload{Frames: 6, W: 64, H: 48, Angle: 0.15, Seed: 9} }

// Instance is a prepared benchmark instance.
type Instance struct {
	W    Workload
	srcs []*img.RGB
}

// New generates one source image per frame.
func New(w Workload) *Instance {
	in := &Instance{W: w}
	for f := 0; f < w.Frames; f++ {
		in.srcs = append(in.srcs, media.Image(w.W, w.H, w.Seed+int64(f)))
	}
	return in
}

// Name returns the Table 1 row name.
func (in *Instance) Name() string { return "rot-cc" }

func (in *Instance) fold(out []*kcolor.CMYK) uint64 {
	sums := make([]uint64, len(out))
	for i, p := range out {
		sums[i] = p.Checksum()
	}
	return check.Combine(sums)
}

func (in *Instance) newFrames() (rot []*img.RGB, out []*kcolor.CMYK) {
	rot = make([]*img.RGB, in.W.Frames)
	out = make([]*kcolor.CMYK, in.W.Frames)
	for f := range rot {
		rot[f] = img.NewRGB(in.W.W, in.W.H)
		out[f] = kcolor.NewCMYK(in.W.W, in.W.H)
	}
	return rot, out
}

// RunSeq rotates then converts each frame in order.
func (in *Instance) RunSeq() uint64 {
	rot, out := in.newFrames()
	for f := 0; f < in.W.Frames; f++ {
		krot.Rotate(rot[f], in.srcs[f], in.W.Angle)
		kcolor.RGBToCMYK(out[f], rot[f])
	}
	return in.fold(out)
}

// RunPthreads runs rotation and conversion as barrier-separated phases.
func (in *Instance) RunPthreads(main *pthread.Thread) uint64 {
	rot, out := in.newFrames()
	api := main.API()
	bar := api.NewBarrier(api.Threads())
	frameBytes := int64(3 * in.W.W * in.W.H)
	main.Parallel(func(t *pthread.Thread) {
		p := t.API().Threads()
		for f := t.ID(); f < in.W.Frames; f += p {
			krot.Rotate(rot[f], in.srcs[f], in.W.Angle)
			t.Compute(krot.RowsCost(in.W.W * in.W.H))
			t.Touch(&rot[f].Pix[0], frameBytes, true)
		}
		t.Barrier(bar)
		for f := t.ID(); f < in.W.Frames; f += p {
			kcolor.RGBToCMYK(out[f], rot[f])
			t.Compute(kcolor.RowsCost(in.W.W * in.W.H))
			t.Touch(&rot[f].Pix[0], frameBytes, false)
			t.Touch(&out[f].C.Pix[0], int64(4*in.W.W*in.W.H), true)
		}
	})
	return in.fold(out)
}

// RunOmpSs chains rotate→convert task pairs per frame.
func (in *Instance) RunOmpSs(rt ompss.API) uint64 {
	rot, out := in.newFrames()
	frameBytes := int64(3 * in.W.W * in.W.H)
	for f := 0; f < in.W.Frames; f++ {
		f := f
		// The intermediate frame links producer to consumer: one handle
		// serves both ends of the chain.
		mid := rt.Register(&rot[f].Pix[0])
		rt.Task(func(*ompss.TC) { krot.Rotate(rot[f], in.srcs[f], in.W.Angle) },
			ompss.OutSized(mid, frameBytes),
			ompss.Cost(krot.RowsCost(in.W.W*in.W.H)),
			ompss.Label("rotate"))
		rt.Task(func(*ompss.TC) { kcolor.RGBToCMYK(out[f], rot[f]) },
			ompss.InSized(mid, frameBytes),
			ompss.OutSized(&out[f].C.Pix[0], int64(4*in.W.W*in.W.H)),
			ompss.Cost(kcolor.RowsCost(in.W.W*in.W.H)),
			ompss.Label("cmyk"))
	}
	rt.Taskwait()
	return in.fold(out)
}
