// Package bodytrack is the bodytrack benchmark of the suite: an annealed
// particle filter tracking an articulated figure through synthetic
// silhouette observations (application class; paper Table 1 mean 1.00 —
// the two models tie). Per annealing layer, particle likelihoods evaluate
// in parallel over fixed chunks; the resample step is serial.
package bodytrack

import (
	"ompssgo/internal/check"
	"ompssgo/internal/img"
	kern "ompssgo/internal/kernels/bodytrack"
	"ompssgo/internal/media"
	"ompssgo/ompss"
	"ompssgo/pthread"
)

// Workload parameterizes one run.
type Workload struct {
	W, H      int
	Frames    int
	Particles int
	Layers    int
	Seed      int64
	Chunk     int // particles per parallel chunk
}

// Default is the harness workload.
func Default() Workload {
	return Workload{W: 128, H: 128, Frames: 12, Particles: 2048, Layers: 3, Seed: 11, Chunk: 64}
}

// Small is the test workload.
func Small() Workload {
	return Workload{W: 64, H: 64, Frames: 3, Particles: 80, Layers: 2, Seed: 11, Chunk: 20}
}

// Instance is a prepared benchmark instance.
type Instance struct {
	W     Workload
	model *kern.Model
	obs   []*img.Gray
	truth [][]float64
}

// New renders the observation sequence from a ground-truth pose walk.
func New(w Workload) *Instance {
	m := kern.DefaultModel(w.W, w.H, w.Particles, w.Layers, w.Seed)
	truth := media.PoseSequence(w.Frames, kern.DOF, w.Seed+1)
	obs := make([]*img.Gray, w.Frames)
	for i, pose := range truth {
		obs[i] = m.RenderSilhouette(pose)
	}
	return &Instance{W: w, model: m, obs: obs, truth: truth}
}

// Name returns the Table 1 row name.
func (in *Instance) Name() string { return "bodytrack" }

// track runs the filter, with weigh phases delegated to `weigh`, which must
// evaluate WeighRange over every chunk and synchronize before returning.
func (in *Instance) track(f *kern.Filter, weigh func(obs *img.Gray)) uint64 {
	estimates := make([]float64, 0, in.W.Frames*kern.DOF)
	for _, obs := range in.obs {
		for layer := 0; layer < in.model.Layers; layer++ {
			weigh(obs)
			f.ResampleAndPerturb(layer)
		}
		weigh(obs)
		estimates = append(estimates, f.Estimate()...)
	}
	return check.Floats(estimates)
}

// RunSeq tracks sequentially over the same chunk structure.
func (in *Instance) RunSeq() uint64 {
	f := kern.NewFilter(in.model)
	n, ch := in.W.Particles, max(in.W.Chunk, 1)
	return in.track(f, func(obs *img.Gray) {
		for lo := 0; lo < n; lo += ch {
			f.WeighRange(obs, lo, min(lo+ch, n))
		}
	})
}

// RunPthreads keeps one SPMD team alive; each weigh phase partitions the
// chunks statically and meets a barrier, then thread 0 runs the serial
// filter steps between phases.
func (in *Instance) RunPthreads(main *pthread.Thread) uint64 {
	f := kern.NewFilter(in.model)
	api := main.API()
	bar := api.NewBarrier(api.Threads())
	n, ch := in.W.Particles, max(in.W.Chunk, 1)
	chunkCost := in.model.RangeCost(in.W.Chunk)
	var out uint64
	var current *img.Gray // observation being weighed; set by thread 0 between barriers
	main.Parallel(func(t *pthread.Thread) {
		nt := t.API().Threads()
		if t.ID() == 0 {
			// Thread 0 drives the filter; the weigh callback farms the
			// chunks to the team via the shared current-observation slot.
			out = in.track(f, func(obs *img.Gray) {
				current = obs
				t.Barrier(bar) // release the team into the weigh phase
				for lo := 0; lo < n; lo += nt * ch {
					f.WeighRange(obs, lo, min(lo+ch, n))
					t.Compute(chunkCost)
					t.Touch(&obs.Pix[0], int64(len(obs.Pix)), false)
				}
				t.Barrier(bar) // wait for team completion
			})
			current = nil
			t.Barrier(bar) // final release with nil = done
			return
		}
		for {
			t.Barrier(bar)
			obs := current
			if obs == nil {
				return
			}
			for lo := t.ID() * ch; lo < n; lo += nt * ch {
				f.WeighRange(obs, lo, min(lo+ch, n))
				t.Compute(chunkCost)
				t.Touch(&obs.Pix[0], int64(len(obs.Pix)), false)
			}
			t.Barrier(bar)
		}
	})
	return out
}

// RunOmpSs spawns one weigh task per chunk per layer on the master TC and
// taskwaits before the serial resample.
func (in *Instance) RunOmpSs(rt ompss.API) uint64 {
	f := kern.NewFilter(in.model)
	n, ch := in.W.Particles, max(in.W.Chunk, 1)
	chunkCost := in.model.RangeCost(in.W.Chunk)
	// The per-chunk weight keys recur every frame: register them once.
	weights := make([]*ompss.Datum, 0, (n+ch-1)/ch)
	for lo := 0; lo < n; lo += ch {
		weights = append(weights, rt.Register(&f.Weights[lo]))
	}
	tc := rt.Master()
	return in.track(f, func(obs *img.Gray) {
		// One handle per observation frame, shared by all chunk tasks.
		obsD := rt.Register(&obs.Pix[0])
		for i, w := range weights {
			lo := i * ch
			hi := min(lo+ch, n)
			tc.Task(func(*ompss.TC) { f.WeighRange(obs, lo, hi) },
				ompss.InSized(obsD, int64(len(obs.Pix))),
				ompss.OutSized(w, int64(8*(hi-lo))),
				ompss.Cost(chunkCost),
				ompss.Label("weigh"))
		}
		tc.Taskwait()
	})
}
