package rayrot

import "testing"

func TestScenesDifferPerFrame(t *testing.T) {
	in := New(Small())
	if len(in.scenes) != in.W.Frames {
		t.Fatalf("scenes = %d", len(in.scenes))
	}
	// Different seeds per frame: at least spheres must differ.
	a, b := in.scenes[0].Spheres, in.scenes[1].Spheres
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("frames should render distinct scenes")
	}
}

func TestOutputCountsAndDeterminism(t *testing.T) {
	in := New(Small())
	if got := in.RunSeq(); got != New(Small()).RunSeq() {
		t.Fatal("not deterministic")
	}
	_, rot := in.newFrames()
	if len(rot) != in.W.Frames*in.W.Rots {
		t.Fatalf("rotated outputs = %d, want %d", len(rot), in.W.Frames*in.W.Rots)
	}
}

func TestNameAndClass(t *testing.T) {
	in := New(Small())
	if in.Name() != "ray-rot" {
		t.Fatalf("name: %s", in.Name())
	}
}
