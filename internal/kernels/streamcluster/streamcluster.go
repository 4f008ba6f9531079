// Package streamcluster reimplements the PARSEC streamcluster workload: an
// online k-median clusterer. Points arrive in chunks; for each chunk, the
// algorithm greedily opens an initial solution (speedy), then improves it
// with facility-location local search: candidate facilities are evaluated by
// computing the total cost change (gain) of opening them, an evaluation that
// parallelizes over points with partial sums and a barrier per candidate —
// the barrier-per-candidate structure is what makes the benchmark
// synchronization-bound (paper §4 places it slightly in Pthreads' favour).
package streamcluster

import (
	"math/rand"
	"time"
)

// Problem is an online k-median instance over flattened dim-dimensional
// points with unit weights.
type Problem struct {
	Points []float64
	N, Dim int
	// ChunkSize points are processed per stream step.
	ChunkSize int
	// FacilityCost is the cost z of opening a facility.
	FacilityCost float64
	// Candidates per local-search round.
	Candidates int
	Seed       int64
}

// State is the clusterer's evolving solution: open facilities (as point
// indices into the stream prefix) and each point's current assignment.
type State struct {
	Open    []int     // indices of open facilities
	Assign  []int     // point -> index into Open
	DistTo  []float64 // point -> squared distance to its facility
	Limit   int       // points processed so far
	rng     *rand.Rand
	problem *Problem
}

// NewState prepares an empty solution.
func (p *Problem) NewState() *State {
	return &State{
		Assign:  make([]int, p.N),
		DistTo:  make([]float64, p.N),
		rng:     rand.New(rand.NewSource(p.Seed)),
		problem: p,
	}
}

func (p *Problem) point(i int) []float64 { return p.Points[i*p.Dim : (i+1)*p.Dim] }

func distSq(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// AbsorbChunk extends the solution over the next chunk of points: each new
// point is either assigned to its nearest open facility or opens itself with
// probability dist/z (the "speedy" online rule). It is BeginChunk, one
// PrescanRange over the whole chunk and CommitChunk; the parallel variants
// split the prescan, which is most of the application's work (at the
// suite's Default scale, sequentially on a 2-CPU x86-64 host: prescan
// 157–200 ms, commit 33–40 ms, candidate evaluation 13–16 ms and apply
// 11–13 ms).
func (s *State) AbsorbChunk() (lo, hi int) {
	lo, hi, k0 := s.BeginChunk()
	s.PrescanRange(lo, hi, k0)
	s.CommitChunk(lo, hi, k0)
	return lo, hi
}

// BeginChunk returns the next chunk of points [lo, hi) and k0, the number of
// facilities open at its start.
func (s *State) BeginChunk() (lo, hi, k0 int) {
	p := s.problem
	lo = s.Limit
	hi = min(lo+p.ChunkSize, p.N)
	return lo, hi, len(s.Open)
}

// PrescanRange finds, for each point of [lo, hi) inside the chunk BeginChunk
// returned, its nearest facility among Open[:k0] and leaves it in Assign and
// DistTo. It writes nothing else, so disjoint ranges may run concurrently.
func (s *State) PrescanRange(lo, hi, k0 int) {
	if k0 == 0 {
		return
	}
	p := s.problem
	first := p.point(s.Open[0])
	for i := lo; i < hi; i++ {
		pt := p.point(i)
		s.Assign[i], s.DistTo[i] = s.scanOpen(pt, 1, k0, 0, distSq(pt, first))
	}
}

// CommitChunk absorbs the chunk in stream order, after PrescanRange has
// covered all of it: each point's scan goes on over the facilities opened
// earlier in the chunk, Open[k0:], and then the point opens itself or takes
// its nearest facility. The two phases are one scan split at k0, so the
// result is bit-identical to scanning Open whole.
func (s *State) CommitChunk(lo, hi, k0 int) {
	p := s.problem
	for i := lo; i < hi; i++ {
		if len(s.Open) == 0 {
			s.Open = append(s.Open, i)
			s.Assign[i] = 0
			s.DistTo[i] = 0
			continue
		}
		var best int
		var bestD float64
		if k0 > 0 {
			best, bestD = s.scanOpen(p.point(i), k0, len(s.Open), s.Assign[i], s.DistTo[i])
		} else {
			best, bestD = s.nearestOpen(i)
		}
		if s.rng.Float64() < bestD/p.FacilityCost {
			s.Assign[i] = len(s.Open)
			s.DistTo[i] = 0
			s.Open = append(s.Open, i)
		} else {
			s.Assign[i] = best
			s.DistTo[i] = bestD
		}
	}
	s.Limit = hi
}

// nearestOpen returns the open facility nearest to point i — the lowest index
// among equals — and its squared distance.
func (s *State) nearestOpen(i int) (int, float64) {
	p := s.problem
	pt := p.point(i)
	return s.scanOpen(pt, 1, len(s.Open), 0, distSq(pt, p.point(s.Open[0])))
}

// scanOpen continues a nearest-facility scan of pt over Open[from:to] from
// the best so far; a later facility replaces it only when strictly nearer.
// The scan over |Open| facilities is the bulk of the application, so a
// candidate is abandoned as soon as its partial sum reaches the best so far
// (distSqBelow); the result is bit-identical to comparing full distances.
func (s *State) scanOpen(pt []float64, from, to, best int, bestD float64) (int, float64) {
	p := s.problem
	for f := from; f < to; f++ {
		if d, ok := distSqBelow(pt, p.point(s.Open[f]), bestD); ok {
			best, bestD = f, d
		}
	}
	return best, bestD
}

// distSqBelow is distSq with an exact early exit: it reports whether the
// squared distance is below bound, and then returns it. The sum accumulates in
// distSq's order and is tested every four dimensions; adding a square never
// lowers it under round-to-nearest, so a partial sum at or over bound settles
// the comparison.
func distSqBelow(a, b []float64, bound float64) (float64, bool) {
	var s float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0, d1, d2, d3 := a[i]-b[i], a[i+1]-b[i+1], a[i+2]-b[i+2], a[i+3]-b[i+3]
		s += d0 * d0
		s += d1 * d1
		s += d2 * d2
		s += d3 * d3
		if s >= bound {
			return s, false
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s, s < bound
}

// GainPartial is one thread's contribution to a candidate evaluation.
type GainPartial struct {
	// Save is the total assignment-cost saving over this thread's points
	// if the candidate opens.
	Save float64
	// CloseSave[f] accumulates, for facility f, the cost delta of
	// reassigning f's remaining points to the candidate if f closes.
	CloseSave []float64
}

// NewGainPartial allocates a partial sized for the current facility count.
func (s *State) NewGainPartial() *GainPartial {
	return &GainPartial{CloseSave: make([]float64, len(s.Open))}
}

// EvalCandidateRange evaluates candidate point c over points [lo, hi) — the
// parallel work unit of the pgain phase. For each point, if switching to the
// candidate is cheaper than its current assignment, the saving accrues to
// Save; otherwise the (negative) penalty of a forced switch accrues to the
// point's current facility in CloseSave.
func (s *State) EvalCandidateRange(c int, pa *GainPartial, lo, hi int) {
	p := s.problem
	cpt := p.point(c)
	for i := lo; i < hi; i++ {
		d := distSq(p.point(i), cpt)
		if d < s.DistTo[i] {
			pa.Save += s.DistTo[i] - d
		} else {
			pa.CloseSave[s.Assign[i]] += s.DistTo[i] - d
		}
	}
}

// ApplyCandidate decides, from the merged partials, whether opening c pays
// for itself (including closing facilities whose remaining points are
// cheaper served by c), and if so rewrites the assignment. Returns the gain
// (0 if rejected). Sequential decision, as in pFL.
func (s *State) ApplyCandidate(c int, merged *GainPartial) float64 {
	p := s.problem
	gain := merged.Save - p.FacilityCost
	var toClose []int
	for f := range s.Open {
		// Closing f saves z but forces its points to the candidate.
		if delta := merged.CloseSave[f] + p.FacilityCost; delta > 0 {
			gain += delta
			toClose = append(toClose, f)
		}
	}
	if gain <= 0 {
		return 0
	}
	closing := make(map[int]bool, len(toClose))
	for _, f := range toClose {
		closing[f] = true
	}
	// Rewrite: candidate becomes a new facility; points move if cheaper or
	// if their facility closes.
	cpt := p.point(c)
	newIdx := -1
	var kept []int
	remap := make([]int, len(s.Open))
	for f, pt := range s.Open {
		if closing[f] {
			remap[f] = -1
			continue
		}
		remap[f] = len(kept)
		kept = append(kept, pt)
	}
	kept = append(kept, c)
	newIdx = len(kept) - 1
	for i := 0; i < s.Limit; i++ {
		d := distSq(p.point(i), cpt)
		if d < s.DistTo[i] || remap[s.Assign[i]] == -1 {
			s.Assign[i] = newIdx
			s.DistTo[i] = d
		} else {
			s.Assign[i] = remap[s.Assign[i]]
		}
	}
	s.Open = kept
	return gain
}

// PickCandidates draws the next local-search candidate set (deterministic
// for a seeded state).
func (s *State) PickCandidates() []int {
	p := s.problem
	out := make([]int, 0, p.Candidates)
	for len(out) < p.Candidates && s.Limit > 0 {
		out = append(out, s.rng.Intn(s.Limit))
	}
	return out
}

// TotalCost returns the current solution cost (assignment + facility costs).
func (s *State) TotalCost() float64 {
	cost := float64(len(s.Open)) * s.problem.FacilityCost
	for i := 0; i < s.Limit; i++ {
		cost += s.DistTo[i]
	}
	return cost
}

// runSequential executes the full stream sequentially (reference variant):
// absorb each chunk, then one local-search round per chunk.
func (p *Problem) runSequential() *State {
	s := p.NewState()
	for s.Limit < p.N {
		s.AbsorbChunk()
		for _, c := range s.PickCandidates() {
			pa := s.NewGainPartial()
			s.EvalCandidateRange(c, pa, 0, s.Limit)
			s.ApplyCandidate(c, pa)
		}
	}
	return s
}

// PointEvalCost is the simulated per-point cost of one candidate evaluation.
func PointEvalCost(dim int) time.Duration {
	return time.Duration(2*dim+12) * time.Nanosecond
}

// RangeEvalCost estimates the simulated cost of evaluating `points` points.
func RangeEvalCost(points, dim int) time.Duration {
	return time.Duration(points) * PointEvalCost(dim)
}
