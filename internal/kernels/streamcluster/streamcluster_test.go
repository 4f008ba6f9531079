package streamcluster

import (
	"math"
	"math/rand"
	"testing"

	"ompssgo/internal/media"
)

func problem(n int, seed int64) *Problem {
	pts, _ := media.Points(n, 3, 5, seed)
	return &Problem{
		Points: pts, N: n, Dim: 3,
		ChunkSize: 100, FacilityCost: 400, Candidates: 6, Seed: seed,
	}
}

func TestAbsorbChunkAssignsEveryPoint(t *testing.T) {
	p := problem(250, 1)
	s := p.NewState()
	for s.Limit < p.N {
		lo, hi := s.AbsorbChunk()
		if hi <= lo {
			t.Fatal("chunk did not advance")
		}
	}
	if s.Limit != p.N {
		t.Fatalf("limit = %d", s.Limit)
	}
	if len(s.Open) == 0 {
		t.Fatal("no facilities opened")
	}
	for i := 0; i < p.N; i++ {
		if s.Assign[i] < 0 || s.Assign[i] >= len(s.Open) {
			t.Fatalf("point %d unassigned", i)
		}
	}
}

func TestGainPartitionEquivalence(t *testing.T) {
	p := problem(300, 2)
	s := p.NewState()
	s.AbsorbChunk()
	s.AbsorbChunk()
	c := s.Limit / 2

	full := s.NewGainPartial()
	s.EvalCandidateRange(c, full, 0, s.Limit)

	merged := s.NewGainPartial()
	for _, blk := range [][2]int{{120, 200}, {0, 50}, {50, 120}} {
		pa := s.NewGainPartial()
		s.EvalCandidateRange(c, pa, blk[0], blk[1])
		merged.Save += pa.Save
		for f := range merged.CloseSave {
			merged.CloseSave[f] += pa.CloseSave[f]
		}
	}
	if math.Abs(full.Save-merged.Save) > 1e-9 {
		t.Fatalf("save %.9f != %.9f", full.Save, merged.Save)
	}
	for f := range full.CloseSave {
		if math.Abs(full.CloseSave[f]-merged.CloseSave[f]) > 1e-9 {
			t.Fatalf("closeSave[%d] differs", f)
		}
	}
}

func TestApplyCandidateNeverIncreasesCost(t *testing.T) {
	p := problem(400, 3)
	s := p.NewState()
	for s.Limit < p.N {
		s.AbsorbChunk()
		before := s.TotalCost()
		for _, c := range s.PickCandidates() {
			pa := s.NewGainPartial()
			s.EvalCandidateRange(c, pa, 0, s.Limit)
			gain := s.ApplyCandidate(c, pa)
			after := s.TotalCost()
			if gain > 0 && after > before+1e-6 {
				t.Fatalf("accepted candidate raised cost %.3f -> %.3f (claimed gain %.3f)",
					before, after, gain)
			}
			before = after
		}
	}
}

func TestLocalSearchImprovesOverSpeedy(t *testing.T) {
	p := problem(500, 4)
	speedyOnly := p.NewState()
	for speedyOnly.Limit < p.N {
		speedyOnly.AbsorbChunk()
	}
	refined := p.RunSequential()
	if refined.TotalCost() > speedyOnly.TotalCost() {
		t.Fatalf("local search should not be worse: %.1f vs %.1f",
			refined.TotalCost(), speedyOnly.TotalCost())
	}
}

func TestDeterministicReplay(t *testing.T) {
	a := problem(300, 5).RunSequential()
	b := problem(300, 5).RunSequential()
	if a.TotalCost() != b.TotalCost() || len(a.Open) != len(b.Open) {
		t.Fatalf("nondeterministic: %.3f/%d vs %.3f/%d",
			a.TotalCost(), len(a.Open), b.TotalCost(), len(b.Open))
	}
}

func TestCostModel(t *testing.T) {
	if RangeEvalCost(100, 3) != 100*PointEvalCost(3) {
		t.Fatal("RangeEvalCost linear")
	}
}

// plainNearest is the reference nearest-facility scan: full distSq per
// facility, strict <.
func plainNearest(s *State, i int) (int, float64) {
	p := s.problem
	want, wantD := 0, distSq(p.point(i), p.point(s.Open[0]))
	for f := 1; f < len(s.Open); f++ {
		if d := distSq(p.point(i), p.point(s.Open[f])); d < wantD {
			want, wantD = f, d
		}
	}
	return want, wantD
}

// plainAbsorb is AbsorbChunk as one plain scan per point.
func plainAbsorb(s *State) {
	p := s.problem
	lo, hi := s.Limit, min(s.Limit+p.ChunkSize, p.N)
	for i := lo; i < hi; i++ {
		if len(s.Open) == 0 {
			s.Open = append(s.Open, i)
			s.Assign[i], s.DistTo[i] = 0, 0
			continue
		}
		best, bestD := plainNearest(s, i)
		if s.rng.Float64() < bestD/p.FacilityCost {
			s.Assign[i], s.DistTo[i] = len(s.Open), 0
			s.Open = append(s.Open, i)
		} else {
			s.Assign[i], s.DistTo[i] = best, bestD
		}
	}
	s.Limit = hi
}

// tiedPoints returns n dim-dimensional points on a coarse grid, a third of
// them duplicates of earlier ones, so that equal distances are common.
func tiedPoints(rng *rand.Rand, n, dim int) []float64 {
	pts := make([]float64, n*dim)
	for i := 0; i < n; i++ {
		src := i
		if i > 0 && rng.Intn(3) == 0 {
			src = rng.Intn(i) // a duplicate of an earlier point
		}
		for k := 0; k < dim; k++ {
			if src == i {
				pts[i*dim+k] = math.Round(rng.NormFloat64()*4) / 2 // coarse grid: many ties
			} else {
				pts[i*dim+k] = pts[src*dim+k]
			}
		}
	}
	return pts
}

// TestNearestOpenMatchesPlainScan checks the early-exit scan against the
// plain one bit for bit, on dimensions around the four-wide test stride and
// on inputs full of duplicate points (equal distances must keep the lower
// facility index). Then it absorbs a stream both ways: plainly, and split
// into a prescan of random pieces run in shuffled order followed by the
// commit — the parallel variants' decomposition, first chunk (k0 == 0)
// included. Open, Assign, DistTo, Limit and the next random draw must agree.
func TestNearestOpenMatchesPlainScan(t *testing.T) {
	for _, dim := range []int{1, 3, 4, 7, 16, 17} {
		rng := rand.New(rand.NewSource(int64(dim)))
		const n = 400
		pts := tiedPoints(rng, n, dim)
		p := &Problem{Points: pts, N: n, Dim: dim}
		s := &State{problem: p}
		for i := 0; i < n; i += 2 {
			s.Open = append(s.Open, i)
		}
		for i := 0; i < n; i++ {
			want, wantD := plainNearest(s, i)
			got, gotD := s.nearestOpen(i)
			if got != want || math.Float64bits(gotD) != math.Float64bits(wantD) {
				t.Fatalf("dim %d point %d: nearestOpen = (%d, %v), plain scan (%d, %v)", dim, i, got, gotD, want, wantD)
			}
		}

		p = &Problem{Points: pts, N: n, Dim: dim, ChunkSize: 90, FacilityCost: 4 * float64(dim), Seed: int64(dim)}
		plain, split := p.NewState(), p.NewState()
		grewInChunk := false
		for split.Limit < p.N {
			plainAbsorb(plain)
			lo, hi, k0 := split.BeginChunk()
			var pieces [][2]int
			for at := lo; at < hi; {
				end := min(at+1+rng.Intn(40), hi)
				pieces = append(pieces, [2]int{at, end})
				at = end
			}
			rng.Shuffle(len(pieces), func(a, b int) { pieces[a], pieces[b] = pieces[b], pieces[a] })
			for _, pc := range pieces {
				split.PrescanRange(pc[0], pc[1], k0)
			}
			split.CommitChunk(lo, hi, k0)
			grewInChunk = grewInChunk || (k0 > 0 && len(split.Open) > k0)

			if split.Limit != plain.Limit || len(split.Open) != len(plain.Open) {
				t.Fatalf("dim %d chunk [%d,%d): limit %d, %d open; plain scan %d, %d open",
					dim, lo, hi, split.Limit, len(split.Open), plain.Limit, len(plain.Open))
			}
			for f := range plain.Open {
				if split.Open[f] != plain.Open[f] {
					t.Fatalf("dim %d chunk [%d,%d): Open[%d] = %d, plain scan %d", dim, lo, hi, f, split.Open[f], plain.Open[f])
				}
			}
			for i := 0; i < plain.Limit; i++ {
				if split.Assign[i] != plain.Assign[i] || math.Float64bits(split.DistTo[i]) != math.Float64bits(plain.DistTo[i]) {
					t.Fatalf("dim %d point %d: (%d, %v), plain scan (%d, %v)",
						dim, i, split.Assign[i], split.DistTo[i], plain.Assign[i], plain.DistTo[i])
				}
			}
			if a, b := split.rng.Int63(), plain.rng.Int63(); a != b {
				t.Fatalf("dim %d chunk [%d,%d): next draw %d, plain scan %d", dim, lo, hi, a, b)
			}
		}
		if !grewInChunk {
			t.Fatalf("dim %d: no chunk after the first opened a facility; the commit's scan went untested", dim)
		}
	}
}
