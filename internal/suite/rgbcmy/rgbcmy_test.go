package rgbcmy

import "testing"

func TestIterationsAreIdempotent(t *testing.T) {
	// The conversion is stateless: repeating it must not change the
	// output, so the iteration count only affects timing — exactly why
	// the benchmark repeats it to stabilize measurements.
	one := Small()
	one.Iters = 1
	many := Small()
	many.Iters = 7
	if New(one).RunSeq() != New(many).RunSeq() {
		t.Fatal("iteration count changed the result")
	}
}

func TestRowBlocksCoverImage(t *testing.T) {
	w := Default()
	if w.H%w.RowBlock != 0 {
		// Uneven tails are fine, but the default should split evenly so
		// every task carries identical cost (the benchmark is about
		// barrier latency, not imbalance).
		t.Fatalf("default rows %d not divisible by block %d", w.H, w.RowBlock)
	}
}

func TestNameAndClass(t *testing.T) {
	in := New(Small())
	if in.Name() != "rgbcmy" {
		t.Fatalf("name: %s", in.Name())
	}
}
