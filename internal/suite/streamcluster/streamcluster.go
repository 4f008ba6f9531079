// Package streamcluster is the streamcluster benchmark of the suite:
// online k-median over a point stream, with candidate-gain evaluations
// parallelized over fixed point chunks and a synchronization point per
// candidate (application class). The many short rounds make it
// synchronization-bound; the paper's Table 1 has Pthreads slightly ahead
// (mean 0.93) — the OmpSs master respawns tasks every round, while the
// SPMD Pthreads team just re-loops through barriers.
//
// Absorbing a chunk of the stream is most of the work: every point scans
// the open facilities for its nearest. Both parallel variants split that
// scan, as PARSEC's pspeedy does: a parallel prescan over the facilities
// open at the chunk's start, then a serial commit in stream order over the
// ones the chunk itself opened, with the online open/assign draw. Chunks
// too small to pay for the split (splitPrescan) are absorbed inline.
package streamcluster

import (
	"ompssgo/internal/check"
	kern "ompssgo/internal/kernels/streamcluster"
	"ompssgo/internal/media"
	"ompssgo/ompss"
	"ompssgo/pthread"
)

// Workload parameterizes one run.
type Workload struct {
	N, Dim       int
	ChunkSize    int // stream step
	FacilityCost float64
	Candidates   int
	Seed         int64
	EvalChunk    int // points per parallel evaluation chunk
}

// Default is the harness workload.
func Default() Workload {
	return Workload{N: 32768, Dim: 16, ChunkSize: 4096, FacilityCost: 2000, Candidates: 5, Seed: 10, EvalChunk: 512}
}

// Small is the test workload.
func Small() Workload {
	return Workload{N: 500, Dim: 3, ChunkSize: 125, FacilityCost: 400, Candidates: 4, Seed: 10, EvalChunk: 64}
}

// Instance is a prepared benchmark instance.
type Instance struct {
	W Workload
}

// New builds the instance (points are generated per run — the state is
// mutated as the stream is absorbed, so each run re-creates it; generation
// costs no virtual time).
func New(w Workload) *Instance { return &Instance{W: w} }

// Name returns the Table 1 row name.
func (in *Instance) Name() string { return "streamcluster" }

func (in *Instance) problem() *kern.Problem {
	pts, _ := media.Points(in.W.N, in.W.Dim, 16, in.W.Seed)
	return &kern.Problem{
		Points: pts, N: in.W.N, Dim: in.W.Dim,
		ChunkSize: in.W.ChunkSize, FacilityCost: in.W.FacilityCost,
		Candidates: in.W.Candidates, Seed: in.W.Seed,
	}
}

func result(s *kern.State) uint64 {
	return check.Floats([]float64{s.TotalCost()}) ^ check.Ints(s.Open) ^ check.Ints(s.Assign)
}

// mergeInOrder folds chunk partials in fixed order (bit-exact reduction).
func mergeInOrder(dst *kern.GainPartial, parts []*kern.GainPartial) {
	for _, pa := range parts {
		dst.Save += pa.Save
		for f := range dst.CloseSave {
			dst.CloseSave[f] += pa.CloseSave[f]
		}
	}
}

// RunSeq streams sequentially over the same chunk structure.
func (in *Instance) RunSeq() uint64 {
	p := in.problem()
	s := p.NewState()
	ec := max(in.W.EvalChunk, 1)
	for s.Limit < p.N {
		s.AbsorbChunk()
		for _, c := range s.PickCandidates() {
			parts := make([]*kern.GainPartial, 0, (s.Limit+ec-1)/ec)
			for lo := 0; lo < s.Limit; lo += ec {
				part := s.NewGainPartial()
				s.EvalCandidateRange(c, part, lo, min(lo+ec, s.Limit))
				parts = append(parts, part)
			}
			merged := s.NewGainPartial()
			mergeInOrder(merged, parts)
			s.ApplyCandidate(c, merged)
		}
	}
	return result(s)
}

// minPrescanWork is the least k0 × EvalChunk × Dim (facilities open at a
// chunk's start × points × dimensions of one prescan piece) for which a
// chunk's prescan is split across the team or into tasks; below it the
// chunk is absorbed inline, the paper's if-clause use: keep tasks coarse.
// Small stays under it throughout, Default crosses it from its second chunk.
const minPrescanWork = 1 << 16

// splitPrescan reports whether a chunk that starts with k0 open facilities
// has its prescan split into EvalChunk-point pieces.
func (in *Instance) splitPrescan(k0 int) bool {
	return k0*in.W.EvalChunk*in.W.Dim >= minPrescanWork
}

// RunPthreads keeps one SPMD team alive for the whole stream, looping over
// one shape: thread 0 runs the serial step, a barrier releases the team
// into its static share of the phase the step set up, and a second barrier
// collects it — the PARSEC pgain structure. A phase is either the gain
// evaluation of one candidate, or the prescan of a chunk that splitPrescan
// admits; the step after a prescan commits that chunk.
func (in *Instance) RunPthreads(main *pthread.Thread) uint64 {
	p := in.problem()
	s := p.NewState()
	api := main.API()
	bar := api.NewBarrier(api.Threads())
	ec := max(in.W.EvalChunk, 1)
	var (
		candidates []int
		cand       int
		from, to   int                 // the phase's points, split into ec-point pieces
		prescan    bool                // the phase is the prescan of [lo, hi)
		parts      []*kern.GainPartial // one per piece of a gain evaluation; nil while prescanning
		lo, hi, k0 int                 // the chunk being prescanned
		finished   bool
	)
	evalCost := kern.RangeEvalCost(in.W.EvalChunk, in.W.Dim)
	// step runs between phases (serial, thread 0): apply the candidate just
	// evaluated or commit the chunk just prescanned, then set up the next
	// phase — the next candidate, or a chunk's prescan — absorbing chunks
	// inline while they are below the split threshold.
	step := func(t *pthread.Thread) {
		switch {
		case parts != nil:
			merged := s.NewGainPartial()
			mergeInOrder(merged, parts)
			s.ApplyCandidate(cand, merged)
			t.Compute(kern.RangeEvalCost(s.Limit/8+1, in.W.Dim))
		case prescan:
			s.CommitChunk(lo, hi, k0)
			candidates = s.PickCandidates()
		}
		for len(candidates) == 0 {
			if s.Limit >= p.N {
				finished = true
				return
			}
			lo, hi, k0 = s.BeginChunk()
			if in.splitPrescan(k0) {
				from, to, prescan, parts = lo, hi, true, nil
				return
			}
			s.PrescanRange(lo, hi, k0)
			s.CommitChunk(lo, hi, k0)
			candidates = s.PickCandidates()
			t.Compute(kern.RangeEvalCost(p.ChunkSize, in.W.Dim))
		}
		cand = candidates[0]
		candidates = candidates[1:]
		from, to, prescan = 0, s.Limit, false
		parts = make([]*kern.GainPartial, (to+ec-1)/ec)
		for i := range parts {
			parts[i] = s.NewGainPartial()
		}
	}
	main.Parallel(func(t *pthread.Thread) {
		nt := t.API().Threads()
		for {
			if t.ID() == 0 {
				step(t)
			}
			t.Barrier(bar)
			if finished {
				return
			}
			for a := from + t.ID()*ec; a < to; a += nt * ec {
				b := min(a+ec, to)
				if prescan {
					s.PrescanRange(a, b, k0)
					t.Compute(kern.RangeEvalCost(b-a, in.W.Dim))
					continue
				}
				s.EvalCandidateRange(cand, parts[(a-from)/ec], a, b)
				t.Compute(evalCost)
				t.Touch(&p.Points[a*p.Dim], int64(8*(b-a)*p.Dim), false)
			}
			t.Barrier(bar)
		}
	})
	return result(s)
}

// RunOmpSs has the master absorb the stream and, per candidate, spawn gain
// tasks on the master TC over the chunks plus a dependent apply task,
// separated by taskwait.
// A chunk that splitPrescan admits is prescanned by one task per
// EvalChunk-point piece, each writing only its own Assign and DistTo range;
// after a taskwait the master commits the chunk.
func (in *Instance) RunOmpSs(rt ompss.API) uint64 {
	p := in.problem()
	s := p.NewState()
	evalCost := kern.RangeEvalCost(in.W.EvalChunk, in.W.Dim)
	// Point-chunk keys recur across candidates and stream windows: intern a
	// handle per chunk start, on first use.
	pointD := map[int]*ompss.Datum{}
	pointsAt := func(at int) *ompss.Datum {
		d := pointD[at]
		if d == nil {
			d = rt.Register(&p.Points[at*p.Dim])
			pointD[at] = d
		}
		return d
	}
	tc := rt.Master()
	ec := max(in.W.EvalChunk, 1)
	for s.Limit < p.N {
		lo, hi, k0 := s.BeginChunk()
		if in.splitPrescan(k0) {
			for a := lo; a < hi; a += ec {
				b := min(a+ec, hi)
				tc.Task(func(*ompss.TC) { s.PrescanRange(a, b, k0) },
					ompss.Out(&s.Assign[a]), ompss.Out(&s.DistTo[a]),
					ompss.Cost(kern.RangeEvalCost(b-a, in.W.Dim)),
					ompss.Label("prescan"))
			}
			tc.Taskwait()
		} else {
			s.PrescanRange(lo, hi, k0)
			tc.Task(func(*ompss.TC) {}, ompss.Cost(kern.RangeEvalCost(p.ChunkSize, in.W.Dim)),
				ompss.Label("absorb"), ompss.If(false)) // absorb is serial master work; charge it inline
		}
		s.CommitChunk(lo, hi, k0)
		for _, c := range s.PickCandidates() {
			parts := make([]*kern.GainPartial, 0, (s.Limit+ec-1)/ec)
			for a := 0; a < s.Limit; a += ec {
				b := min(a+ec, s.Limit)
				part := s.NewGainPartial()
				parts = append(parts, part)
				tc.Task(func(*ompss.TC) { s.EvalCandidateRange(c, part, a, b) },
					ompss.OutSized(part, int64(8*(1+len(part.CloseSave)))),
					ompss.InSized(pointsAt(a), int64(8*(b-a)*p.Dim)),
					ompss.Cost(evalCost),
					ompss.Label("pgain"))
			}
			tc.Taskwait()
			merged := s.NewGainPartial()
			mergeInOrder(merged, parts)
			s.ApplyCandidate(c, merged)
			tc.Task(func(*ompss.TC) {}, ompss.Cost(kern.RangeEvalCost(s.Limit/8+1, in.W.Dim)),
				ompss.Label("apply"), ompss.If(false)) // serial apply charged inline
		}
	}
	return result(s)
}
