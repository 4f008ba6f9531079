// Package rayrot is the ray-rot benchmark of the suite: the c-ray kernel
// renders animation frames and the rotate kernel produces several rotated
// views of each (workload class). The paper credits OmpSs's lead here
// (Table 1 mean 1.27, peaking at 1.65 on 16 cores) to locality-aware
// scheduling: dependent render→rotate task chains run back-to-back on the
// producing core and read warm data, dodging the saturated memory system,
// while the phase-structured Pthreads variant separates the stages with a
// barrier, by which time the producer's frames have cooled (and every
// rotation streams from contended DRAM).
package rayrot

import (
	"ompssgo/internal/check"
	"ompssgo/internal/img"
	kcray "ompssgo/internal/kernels/cray"
	krot "ompssgo/internal/kernels/rotate"
	"ompssgo/ompss"
	"ompssgo/pthread"
)

// Workload parameterizes one run.
type Workload struct {
	Frames  int
	Rots    int // rotated views produced per rendered frame
	W, H    int
	Spheres int
	Angle   float64 // rotation step between views
	Seed    int64
}

// Default is the harness workload: render cost and total rotation cost are
// of the same order, as in the original benchmark pairing.
func Default() Workload {
	return Workload{Frames: 36, Rots: 12, W: 96, H: 72, Spheres: 4, Angle: 0.25, Seed: 8}
}

// Small is the test workload.
func Small() Workload {
	return Workload{Frames: 4, Rots: 3, W: 48, H: 32, Spheres: 4, Angle: 0.25, Seed: 8}
}

// Instance is a prepared benchmark instance.
type Instance struct {
	W      Workload
	scenes []*kcray.Scene
}

// New generates one scene per frame (a camera sweep).
func New(w Workload) *Instance {
	in := &Instance{W: w}
	for f := 0; f < w.Frames; f++ {
		in.scenes = append(in.scenes, kcray.GenScene(w.Spheres, w.Seed+int64(f)))
	}
	return in
}

// Name returns the Table 1 row name.
func (in *Instance) Name() string { return "ray-rot" }

func (in *Instance) frameBytes() int64 { return int64(3 * in.W.W * in.W.H) }

// rotReadBytes is the rotate kernel's declared input traffic: the diagonal
// walk of inverse mapping touches cache lines with poor spatial locality, so
// effective traffic is about twice the frame size.
func (in *Instance) rotReadBytes() int64 { return 2 * in.frameBytes() }

func (in *Instance) fold(rot []*img.RGB) uint64 {
	sums := make([]uint64, len(rot))
	for i, im := range rot {
		sums[i] = im.Checksum()
	}
	return check.Combine(sums)
}

func (in *Instance) newFrames() (src, rot []*img.RGB) {
	src = make([]*img.RGB, in.W.Frames)
	rot = make([]*img.RGB, in.W.Frames*in.W.Rots)
	for f := range src {
		src[f] = img.NewRGB(in.W.W, in.W.H)
	}
	for i := range rot {
		rot[i] = img.NewRGB(in.W.W, in.W.H)
	}
	return src, rot
}

func (in *Instance) angle(j int) float64 { return in.W.Angle * float64(j+1) }

// RunSeq renders each frame, then produces its rotated views, in order.
func (in *Instance) RunSeq() uint64 {
	src, rot := in.newFrames()
	for f := 0; f < in.W.Frames; f++ {
		in.scenes[f].Render(src[f])
		for j := 0; j < in.W.Rots; j++ {
			krot.Rotate(rot[f*in.W.Rots+j], src[f], in.angle(j))
		}
	}
	return in.fold(rot)
}

// RunPthreads runs the two kernels as separate data-parallel phases over
// the frame set, separated by a barrier (the PARSEC-style structure the
// paper's Pthreads variant uses): first all renders, then all rotations.
func (in *Instance) RunPthreads(main *pthread.Thread) uint64 {
	src, rot := in.newFrames()
	api := main.API()
	bar := api.NewBarrier(api.Threads())
	main.Parallel(func(t *pthread.Thread) {
		p := t.API().Threads()
		for f := t.ID(); f < in.W.Frames; f += p {
			in.scenes[f].Render(src[f])
			t.Compute(kcray.RowsCost(in.W.W*in.W.H, in.W.Spheres))
			t.Touch(&src[f].Pix[0], in.frameBytes(), true)
		}
		t.Barrier(bar)
		for i := t.ID(); i < len(rot); i += p {
			f, j := i/in.W.Rots, i%in.W.Rots
			krot.Rotate(rot[i], src[f], in.angle(j))
			t.Compute(krot.RowsCost(in.W.W * in.W.H))
			t.Touch(&src[f].Pix[0], in.rotReadBytes(), false)
			t.Touch(&rot[i].Pix[0], in.frameBytes(), true)
		}
	})
	return in.fold(rot)
}

// RunOmpSs spawns a render task per frame and its dependent rotate tasks on
// the master TC; the runtime's locality policy chains the consumers onto the
// producer's core while the frame is still cache-resident.
func (in *Instance) RunOmpSs(rt ompss.API) uint64 {
	src, rot := in.newFrames()
	tc := rt.Master()
	for f := 0; f < in.W.Frames; f++ {
		// One registered handle per source frame: the producing render and
		// its Rots consumers all submit through it.
		frame := rt.Register(&src[f].Pix[0])
		tc.Task(func(*ompss.TC) { in.scenes[f].Render(src[f]) },
			ompss.OutSized(frame, in.frameBytes()),
			ompss.Cost(kcray.RowsCost(in.W.W*in.W.H, in.W.Spheres)),
			ompss.Label("render"))
		for j := 0; j < in.W.Rots; j++ {
			i := f*in.W.Rots + j
			tc.Task(func(*ompss.TC) { krot.Rotate(rot[i], src[f], in.angle(j)) },
				ompss.InSized(frame, in.rotReadBytes()),
				ompss.OutSized(&rot[i].Pix[0], in.frameBytes()),
				ompss.Cost(krot.RowsCost(in.W.W*in.W.H)),
				ompss.Label("rotate"))
		}
	}
	tc.Taskwait()
	return in.fold(rot)
}
