package cray

import (
	"testing"
	"time"
)

func TestBlockCostsAreHeterogeneous(t *testing.T) {
	in := New(Default())
	var min, max time.Duration
	for lo := 0; lo < in.W.H; lo += in.W.RowBlock {
		hi := lo + in.W.RowBlock
		if hi > in.W.H {
			hi = in.W.H
		}
		c := in.blockCost(lo, hi)
		if c <= 0 {
			t.Fatalf("non-positive block cost %v", c)
		}
		if lo == 0 || c < min {
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
