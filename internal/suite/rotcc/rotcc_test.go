package rotcc

import (
	"testing"

	"ompssgo/internal/img"
	kcolor "ompssgo/internal/kernels/color"
	krot "ompssgo/internal/kernels/rotate"
)

func TestPipelineMatchesManualComposition(t *testing.T) {
	in := New(Small())
	// Recompute frame 0 by hand and compare against the suite's fold
	// input structure.
	rot := img.NewRGB(in.W.W, in.W.H)
	krot.Rotate(rot, in.srcs[0], in.W.Angle)
	out := kcolor.NewCMYK(in.W.W, in.W.H)
	kcolor.RGBToCMYK(out, rot)
	rots, outs := in.newFrames()
	krot.Rotate(rots[0], in.srcs[0], in.W.Angle)
	kcolor.RGBToCMYK(outs[0], rots[0])
	if out.Checksum() != outs[0].Checksum() {
		t.Fatal("suite stage composition diverges from manual composition")
	}
}

func TestNameAndClass(t *testing.T) {
	in := New(Small())
	if in.Name() != "rot-cc" {
		t.Fatalf("name: %s", in.Name())
	}
}
