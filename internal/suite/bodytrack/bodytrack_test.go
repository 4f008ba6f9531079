package bodytrack

import (
	"testing"

	"ompssgo/internal/img"
	kern "ompssgo/internal/kernels/bodytrack"
)

func TestObservationsMatchTruth(t *testing.T) {
	in := New(Small())
	if len(in.obs) != in.W.Frames || len(in.truth) != in.W.Frames {
		t.Fatal("observation/truth length mismatch")
	}
	// The true pose must score near-perfectly against its own silhouette.
	for f, pose := range in.truth {
		if ll := in.model.LogLikelihood(pose, in.obs[f]); ll < 7 {
			t.Fatalf("frame %d: truth likelihood %.2f", f, ll)
		}
	}
}

func TestTrackedErrorBeatsStatic(t *testing.T) {
	in := New(Small())
	f := kern.NewFilter(in.model)
	in.track(f, func(obs *img.Gray) {
		f.WeighRange(obs, 0, len(f.Particles))
	})
	// track already ran the filter; compare the final estimate against
	// the last ground-truth pose vs the zero pose.
	est := f.Estimate()
	last := in.truth[len(in.truth)-1]
	zero := make([]float64, kern.DOF)
	if kern.PoseError(est, last) >= kern.PoseError(zero, last)+0.1 {
		t.Fatalf("tracking (%.3f) much worse than static guess (%.3f)",
			kern.PoseError(est, last), kern.PoseError(zero, last))
	}
}

func TestNameAndClass(t *testing.T) {
	in := New(Small())
	if in.Name() != "bodytrack" {
		t.Fatalf("name: %s", in.Name())
	}
}
