package blocks

import (
	"testing"
	"testing/quick"
)

func TestRangesCoverExactly(t *testing.T) {
	f := func(n, chunk uint16) bool {
		nn, cc := int(n%5000), int(chunk%100)
		rs := Ranges(nn, cc)
		covered := 0
		prev := 0
		for _, r := range rs {
			if r[0] != prev || r[1] <= r[0] {
				return false
			}
			covered += r[1] - r[0]
			prev = r[1]
		}
		return covered == nn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRangesChunkBound(t *testing.T) {
	for _, r := range Ranges(103, 10) {
		if r[1]-r[0] > 10 {
			t.Fatalf("oversized chunk %v", r)
		}
	}
	if got := len(Ranges(103, 10)); got != 11 {
		t.Fatalf("chunks = %d, want 11", got)
	}
}

func TestRangesDegenerate(t *testing.T) {
	if Ranges(0, 10) != nil {
		t.Fatal("empty range should yield no chunks")
	}
	if got := len(Ranges(5, 0)); got != 5 {
		t.Fatalf("chunk<1 should clamp to 1, got %d chunks", got)
	}
}
