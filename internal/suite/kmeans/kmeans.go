// Package kmeans is the kmeans benchmark of the suite: Lloyd iterations
// with a parallel assignment phase over fixed point chunks, an in-order
// partial reduction, and a barrier/taskwait per iteration (workload class;
// paper Table 1 mean 0.97).
//
// All variants accumulate into per-chunk partials merged in chunk order, so
// floating-point results are bit-identical across variants and thread
// counts.
package kmeans

import (
	"ompssgo/internal/blocks"
	"ompssgo/internal/check"
	kern "ompssgo/internal/kernels/kmeans"
	"ompssgo/internal/media"
	"ompssgo/ompss"
	"ompssgo/pthread"
)

// Workload parameterizes one run.
type Workload struct {
	N, Dim, K int
	MaxIter   int
	Seed      int64
	Chunk     int // points per chunk (fixed, independent of thread count)
}

// Default is the harness workload.
func Default() Workload { return Workload{N: 16384, Dim: 8, K: 12, MaxIter: 25, Seed: 7, Chunk: 512} }

// Small is the test workload.
func Small() Workload { return Workload{N: 600, Dim: 4, K: 5, MaxIter: 10, Seed: 7, Chunk: 100} }

// Instance is a prepared benchmark instance.
type Instance struct {
	W    Workload
	prob *kern.Problem
}

// New generates the point set.
func New(w Workload) *Instance {
	pts, _ := media.Points(w.N, w.Dim, w.K, w.Seed)
	return &Instance{W: w, prob: &kern.Problem{Points: pts, N: w.N, Dim: w.Dim, K: w.K}}
}

// Name returns the Table 1 row name.
func (in *Instance) Name() string { return "kmeans" }

type state struct {
	centroids []float64
	assign    []int
	partials  []*kern.Partial
	merged    *kern.Partial
	ranges    [][2]int
}

func (in *Instance) newState() *state {
	s := &state{
		centroids: in.prob.InitCentroids(),
		assign:    make([]int, in.W.N),
		merged:    in.prob.NewPartial(),
		ranges:    blocks.Ranges(in.W.N, in.W.Chunk),
	}
	for i := range s.assign {
		s.assign[i] = -1
	}
	s.partials = make([]*kern.Partial, len(s.ranges))
	for i := range s.partials {
		s.partials[i] = in.prob.NewPartial()
	}
	return s
}

// reduce merges partials in chunk order and updates centroids; returns
// moved-count (0 = converged).
func (in *Instance) reduce(s *state) int {
	s.merged.Reset()
	for _, pa := range s.partials {
		s.merged.Merge(pa)
	}
	return in.prob.UpdateCentroids(s.centroids, s.merged)
}

func (in *Instance) result(s *state) uint64 {
	return check.Floats(s.centroids) ^ check.Ints(s.assign)
}

// RunSeq iterates sequentially over the same chunk structure.
func (in *Instance) RunSeq() uint64 {
	s := in.newState()
	for it := 0; it < in.W.MaxIter; it++ {
		for c, r := range s.ranges {
			s.partials[c].Reset()
			in.prob.AssignRange(s.centroids, s.assign, s.partials[c], r[0], r[1])
		}
		if in.reduce(s) == 0 {
			break
		}
	}
	return in.result(s)
}

// RunPthreads runs one SPMD region; each iteration assigns chunks
// statically, meets a barrier, thread 0 reduces, and a second barrier
// publishes the new centroids.
func (in *Instance) RunPthreads(main *pthread.Thread) uint64 {
	s := in.newState()
	api := main.API()
	bar := api.NewBarrier(api.Threads())
	done := api.NewSpinVar()
	chunkCost := kern.RangeCost(in.W.Chunk, in.W.K, in.W.Dim)
	main.Parallel(func(t *pthread.Thread) {
		p := t.API().Threads()
		for it := 0; it < in.W.MaxIter; it++ {
			if t.Load(done) != 0 {
				break
			}
			for c := t.ID(); c < len(s.ranges); c += p {
				s.partials[c].Reset()
				in.prob.AssignRange(s.centroids, s.assign, s.partials[c], s.ranges[c][0], s.ranges[c][1])
				t.Compute(chunkCost)
				t.Touch(&in.prob.Points[s.ranges[c][0]*in.W.Dim],
					int64(8*(s.ranges[c][1]-s.ranges[c][0])*in.W.Dim), false)
			}
			if t.Barrier(bar) {
				if in.reduce(s) == 0 {
					t.Store(done, 1)
				}
				t.Compute(kern.RangeCost(len(s.ranges)*in.W.K, 1, in.W.Dim))
			}
			t.Barrier(bar)
		}
	})
	return in.result(s)
}

// RunOmpSs spawns one assignment task per chunk each iteration, taskwaits,
// and reduces on the master (the task barrier separating iterations).
func (in *Instance) RunOmpSs(rt ompss.API) uint64 {
	s := in.newState()
	chunkCost := kern.RangeCost(in.W.Chunk, in.W.K, in.W.Dim)
	// Every key here recurs each iteration (centroids in every chunk task,
	// one partial per chunk, one point-range per chunk): register the whole
	// working set once, then submit through handles only.
	cent := rt.Register(&s.centroids[0])
	partials := make([]*ompss.Datum, len(s.partials))
	points := make([]*ompss.Datum, len(s.ranges))
	for c, r := range s.ranges {
		partials[c] = rt.Register(s.partials[c])
		points[c] = rt.Register(&in.prob.Points[r[0]*in.W.Dim])
	}
	for it := 0; it < in.W.MaxIter; it++ {
		for c := range s.ranges {
			c := c
			r := s.ranges[c]
			rt.Task(func(*ompss.TC) {
				s.partials[c].Reset()
				in.prob.AssignRange(s.centroids, s.assign, s.partials[c], r[0], r[1])
			},
				ompss.In(cent),
				ompss.InSized(points[c], int64(8*(r[1]-r[0])*in.W.Dim)),
				ompss.OutSized(partials[c], int64(8*in.W.K*in.W.Dim)),
				ompss.Cost(chunkCost),
				ompss.Label("assign"))
		}
		moved := -1
		rt.Task(func(tc *ompss.TC) {
			moved = in.reduce(s)
			tc.Compute(kern.RangeCost(len(s.ranges)*in.W.K, 1, in.W.Dim))
		}, append([]ompss.Clause{ompss.InOut(cent), ompss.Label("reduce")},
			insOf(partials)...)...)
		rt.Taskwait()
		if moved == 0 {
			break
		}
	}
	return in.result(s)
}

func insOf(ds []*ompss.Datum) []ompss.Clause {
	cs := make([]ompss.Clause, len(ds))
	for i, d := range ds {
		cs[i] = ompss.In(d)
	}
	return cs
}
