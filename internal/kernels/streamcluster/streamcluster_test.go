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

// TestNearestOpenMatchesPlainScan checks the early-exit scan against the
// plain one — full distSq per facility, strict < — bit for bit, on dimensions
// around the four-wide test stride and on inputs full of duplicate points
// (equal distances must keep the lower facility index).
func TestNearestOpenMatchesPlainScan(t *testing.T) {
	for _, dim := range []int{1, 3, 4, 7, 16, 17} {
		rng := rand.New(rand.NewSource(int64(dim)))
		const n = 400
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
		p := &Problem{Points: pts, N: n, Dim: dim}
		s := &State{problem: p}
		for i := 0; i < n; i += 2 {
			s.Open = append(s.Open, i)
		}
		for i := 0; i < n; i++ {
			want, wantD := 0, distSq(p.point(i), p.point(s.Open[0]))
			for f := 1; f < len(s.Open); f++ {
				if d := distSq(p.point(i), p.point(s.Open[f])); d < wantD {
					want, wantD = f, d
				}
			}
			got, gotD := s.nearestOpen(i)
			if got != want || math.Float64bits(gotD) != math.Float64bits(wantD) {
				t.Fatalf("dim %d point %d: nearestOpen = (%d, %v), plain scan (%d, %v)", dim, i, got, gotD, want, wantD)
			}
		}
	}
}
