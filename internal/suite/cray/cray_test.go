package cray

import (
	"testing"
	"time"

	"ompssgo/internal/blocks"
)

func TestBlockCostsAreHeterogeneous(t *testing.T) {
	in := New(Default())
	bl := blocks.Ranges(in.W.H, in.W.RowBlock)
	var min, max time.Duration
	for i, b := range bl {
		c := in.blockCost(b[0], b[1])
		if c <= 0 {
			t.Fatalf("non-positive block cost %v", c)
		}
		if i == 0 || c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	// Rows over sphere projections must cost measurably more than sky
	// rows — the imbalance that static partitions cannot absorb.
	if float64(max) < 1.2*float64(min) {
		t.Fatalf("block costs too uniform: min %v, max %v", min, max)
	}
}

func TestSeqMatchesAcrossScales(t *testing.T) {
	// Same workload, two instances: identical output.
	a, b := New(Small()), New(Small())
	if a.RunSeq() != b.RunSeq() {
		t.Fatal("instance construction must be deterministic")
	}
}

func TestNameAndClass(t *testing.T) {
	in := New(Small())
	if in.Name() != "c-ray" {
		t.Fatalf("name: %s", in.Name())
	}
}
