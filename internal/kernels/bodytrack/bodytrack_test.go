package bodytrack

import (
	"testing"

	"ompssgo/internal/img"
	"ompssgo/internal/media"
)

func TestSilhouetteNonEmpty(t *testing.T) {
	m := DefaultModel(96, 96, 10, 2, 1)
	pose := make([]float64, DOF)
	sil := m.RenderSilhouette(pose)
	on := 0
	for _, v := range sil.Pix {
		if v > 0 {
			on++
		}
	}
	if on < 100 {
		t.Fatalf("silhouette has only %d foreground pixels", on)
	}
	if on > len(sil.Pix)/2 {
		t.Fatalf("silhouette covers %d pixels; figure should be sparse", on)
	}
}

func TestLikelihoodPrefersTruePose(t *testing.T) {
	m := DefaultModel(96, 96, 10, 2, 2)
	truth := []float64{0.1, -0.1, 0.2, 0.3, -0.2, 0.1, 0.2, -0.3}
	obs := m.RenderSilhouette(truth)
	good := m.LogLikelihood(truth, obs)
	bad := m.LogLikelihood([]float64{-0.8, 0.8, -0.9, -0.8, 0.8, -0.9, 0.9, 0.8}, obs)
	if good <= bad {
		t.Fatalf("true pose likelihood %.3f should beat wrong pose %.3f", good, bad)
	}
	if good < 7.5 {
		t.Fatalf("true pose should score near maximum (8), got %.3f", good)
	}
}

func TestWeighRangePartitionEquivalence(t *testing.T) {
	m := DefaultModel(64, 64, 60, 2, 3)
	f := NewFilter(m)
	obs := m.RenderSilhouette(make([]float64, DOF))
	f.WeighRange(obs, 0, len(f.Particles))
	full := append([]float64(nil), f.Weights...)
	for i := range f.Weights {
		f.Weights[i] = 0
	}
	for _, blk := range [][2]int{{40, 60}, {0, 15}, {15, 40}} {
		f.WeighRange(obs, blk[0], blk[1])
	}
	for i := range full {
		if full[i] != f.Weights[i] {
			t.Fatalf("weight %d differs", i)
		}
	}
}

func TestTrackingBeatsStaticGuess(t *testing.T) {
	const frames = 8
	m := DefaultModel(96, 96, 120, 3, 4)
	truth := media.PoseSequence(frames, DOF, 4)
	// Scale ground-truth into the model's comfortable range.
	obs := make([]*img.Gray, frames)
	for i, p := range truth {
		obs[i] = m.RenderSilhouette(p)
	}
	est := trackSequential(m, obs)
	var tracked, static float64
	zero := make([]float64, DOF)
	for i := range truth {
		tracked += PoseError(est[i], truth[i])
		static += PoseError(zero, truth[i])
	}
	tracked /= frames
	static /= frames
	if tracked >= static {
		t.Fatalf("tracking error %.3f should beat static guess %.3f", tracked, static)
	}
}

func TestFilterDeterministic(t *testing.T) {
	run := func() []float64 {
		m := DefaultModel(64, 64, 40, 2, 7)
		obs := media.Video(3, 64, 64, 7)
		est := trackSequential(m, obs)
		return est[len(est)-1]
	}
	a, b := run(), run()
	for d := range a {
		if a[d] != b[d] {
			t.Fatal("filter must be deterministic for a fixed seed")
		}
	}
}

func TestResamplePreservesCount(t *testing.T) {
	m := DefaultModel(64, 64, 30, 2, 9)
	f := NewFilter(m)
	for i := range f.Weights {
		f.Weights[i] = float64(i + 1)
	}
	f.ResampleAndPerturb(0)
	if len(f.Particles) != 30 {
		t.Fatalf("particle count changed: %d", len(f.Particles))
	}
	for _, p := range f.Particles {
		for _, v := range p {
			if v < -1 || v > 1 {
				t.Fatalf("particle out of bounds: %f", v)
			}
		}
	}
}

func TestCostModel(t *testing.T) {
	m := DefaultModel(64, 64, 10, 2, 1)
	if m.RangeCost(100) != 100*m.ParticleCost() {
		t.Fatal("RangeCost linear")
	}
}
