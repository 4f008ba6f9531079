package main

import (
	"math"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		// A parent with nested children: 1 ⊃ 2 ⊃ 3.
		{ID: 1, Trace: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Trace: 1, Parent: 1, Name: "app", Start: 10, End: 90},
		{ID: 3, Trace: 1, Parent: 2, Name: "call", Start: 20, End: 50},
		// Adjacent children that touch: 5 ends where 6 starts.
		{ID: 4, Trace: 4, Name: "pass", Start: 200, End: 300},
		{ID: 5, Trace: 4, Parent: 4, Name: "call", Start: 200, End: 250},
		{ID: 6, Trace: 4, Parent: 4, Name: "call", Start: 250, End: 290},
		// Overlapping children, one of them running past its parent: the
		// covered part is the union, clipped to the parent.
		{ID: 7, Trace: 7, Name: "pass", Start: 400, End: 500},
		{ID: 8, Trace: 7, Parent: 7, Name: "call", Start: 410, End: 460},
		{ID: 9, Trace: 7, Parent: 7, Name: "call", Start: 440, End: 520},
		{ID: 10, Trace: 7, Parent: 7, Name: "call", Start: 445, End: 450}, // inside 8 and 9
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 20, 2: 50, 3: 30,
		4: 10, 5: 50, 6: 40,
		7: 10, 8: 50, 9: 80, 10: 5,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}

	byName := selfByName(spans)
	if got := byName["call"]; len(got) != 3 || got[0] != 30 || got[1] != 90 || got[2] != 135 {
		t.Errorf("per-trace self sums of %q = %v, want [30 90 135]", "call", got)
	}

	// Sequential, properly nested spans account for their roots exactly.
	if cov := selfCoverage(spans[:6]); math.Abs(cov-1) > 1e-12 {
		t.Errorf("self coverage of nested and adjacent spans = %v, want 1", cov)
	}
}

func TestSpanLogKeepsNothingWhenOff(t *testing.T) {
	off := newSpanLog(false)
	sp := off.root("pass")
	if d := sp.child("call").end(); d < 0 {
		t.Errorf("negative duration %v", d)
	}
	sp.end()
	if len(off.spans) != 0 {
		t.Errorf("a span log that is off kept %d spans", len(off.spans))
	}

	on := newSpanLog(true)
	root := on.root("pass")
	kid := root.child("call")
	kid.end()
	root.end()
	if len(on.spans) != 2 {
		t.Fatalf("kept %d spans, want 2", len(on.spans))
	}
	got := on.spans[0]
	if got.Name != "call" || got.Parent != root.id || got.Trace != root.trace || got.End < got.Start {
		t.Errorf("child span recorded as %+v under root %d", got, root.id)
	}
}

func TestTailPicksSupportedPercentile(t *testing.T) {
	seq := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n     int
		level float64
		value float64
	}{
		{n: 5000, level: 0.99, value: 4950}, // 50 samples beyond
		{n: 1000, level: 0.99, value: 990},  // exactly 10 beyond
		{n: 999, level: 0.95, value: 950},   // 9.99 beyond the p99: step down
		{n: 200, level: 0.95, value: 190},
		{n: 150, level: 0.90, value: 135},
		{n: 60, level: 0.75, value: 45},
		{n: 20, level: 0.50, value: 10},
		{n: 3, level: 0.50, value: 2}, // too few for any tail: the median
	} {
		value, level, n := tail(seq(c.n))
		if level != c.level || value != c.value || n != c.n {
			t.Errorf("tail of %d samples = %v at p%g (n=%d), want %v at p%g",
				c.n, value, level*100, n, c.value, c.level*100)
		}
	}
	if value, _, n := tail(nil); value != 0 || n != 0 {
		t.Errorf("tail of nothing = %v (n=%d), want 0", value, n)
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// gives [3.5, 13.5, 31.0]; the median is 13.5.
	v := []float64{46, 1, 29, 2, 22, 4, 16, 7, 11, 37}
	spread, ok := quartileSpread(v)
	if want := (31.0 - 3.5) / 13.5; !ok || math.Abs(spread-want) > 1e-12 {
		t.Errorf("quartile spread = %v (ok=%v), want %v", spread, ok, want)
	}
	if _, ok := quartileSpread([]float64{3}); ok {
		t.Error("a single value has no spread")
	}
}
