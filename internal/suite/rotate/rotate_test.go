package rotate

import "testing"

func TestRotationChangesImage(t *testing.T) {
	in := New(Small())
	if in.RunSeq() == in.src.Checksum() {
		t.Fatal("rotated output should differ from the source")
	}
}

func TestZeroAngleIdentity(t *testing.T) {
	w := Small()
	w.Angle = 0
	in := New(w)
	if in.RunSeq() != in.src.Checksum() {
		t.Fatal("zero-angle rotation must be the identity")
	}
}

func TestNameAndClass(t *testing.T) {
	in := New(Small())
	if in.Name() != "rotate" {
		t.Fatalf("name: %s", in.Name())
	}
}
