package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"ompssgo/internal/suite"
	srayrot "ompssgo/internal/suite/rayrot"
	"ompssgo/machine"
	"ompssgo/ompss"
)

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean(2,8) = %f", g)
	}
	if g := geomean([]float64{1, 1, 1}); g != 1 {
		t.Fatalf("geomean(ones) = %f", g)
	}
	if g := geomean(nil); g != 0 {
		t.Fatalf("geomean(nil) = %f", g)
	}
	if g := geomean([]float64{1, 0}); g != 0 {
		t.Fatalf("geomean with zero = %f", g)
	}
}

func TestCellFactor(t *testing.T) {
	c := cell{pthreads: 200, ompss: 100}
	if c.factor() != 2 {
		t.Fatalf("factor = %f", c.factor())
	}
	if (cell{}).factor() != 0 {
		t.Fatal("zero cell should not divide by zero")
	}
}

func TestMeasureCellSmall(t *testing.T) {
	in, err := suite.New("c-ray", suite.Small)
	if err != nil {
		t.Fatal(err)
	}
	c, err := measureCell(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.pthreads <= 0 || c.ompss <= 0 {
		t.Fatalf("non-positive makespans: %+v", c)
	}
	if f := c.factor(); f < 0.2 || f > 5 {
		t.Fatalf("implausible factor %f", f)
	}
}

func TestTable1SmallTwoBenchmarks(t *testing.T) {
	// A reduced Table 1 (2 benchmarks × 2 core counts) exercises the whole
	// pipeline: measurement, means, rendering.
	tb := &table{cores: []int{1, 4}, rows: []string{"c-ray", "md5"}, cells: map[string]map[int]cell{}}
	for _, name := range tb.rows {
		in, err := suite.New(name, suite.Small)
		if err != nil {
			t.Fatal(err)
		}
		tb.cells[name] = map[int]cell{}
		for _, p := range tb.cores {
			c, err := measureCell(in, p)
			if err != nil {
				t.Fatal(err)
			}
			tb.cells[name][p] = c
		}
	}
	if m := tb.rowMean("c-ray"); m <= 0 {
		t.Fatalf("row mean %f", m)
	}
	if m := tb.colMean(4); m <= 0 {
		t.Fatalf("col mean %f", m)
	}
	if m := tb.overallMean(); m <= 0 {
		t.Fatalf("overall mean %f", m)
	}
	var buf bytes.Buffer
	tb.write(&buf, true)
	out := buf.String()
	for _, want := range []string{"Benchmark", "c-ray", "md5", "Mean", "(paper)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestPaperTable1Reference(t *testing.T) {
	// Pin the transcription of the paper's numbers.
	if len(paperTable1) != 10 {
		t.Fatalf("paper table rows = %d", len(paperTable1))
	}
	for name, row := range paperTable1 {
		if len(row) != 5 {
			t.Fatalf("%s: %d columns", name, len(row))
		}
	}
	if paperTable1["h264dec"][4] != 0.42 || paperTable1["rgbcmy"][4] != 1.53 {
		t.Fatal("headline cells mistranscribed")
	}
}

func TestAblationsSmall(t *testing.T) {
	var buf bytes.Buffer
	if err := barrierAblation(suite.Small, []int{4}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := localityAblation(suite.Small, []int{4}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := granularityAblation(suite.Small, []int{4}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := occupancyAblation(suite.Small, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"barrier ablation", "locality ablation", "granularity ablation", "occupancy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation output missing %q", want)
		}
	}
}

// TestLocalityBeatsFIFOOnRayRot pins the mechanism the paper's §4 credits
// for ray-rot's OmpSs lead: on the 32-core machine the Default workload
// finishes sooner when a released rotate runs on the core that rendered its
// frame than when it joins the shared FIFO. Virtual time, so the verdict is
// deterministic.
func TestLocalityBeatsFIFOOnRayRot(t *testing.T) {
	in := srayrot.New(srayrot.Default())
	run := func(rt *ompss.Runtime) { in.RunOmpSs(rt) }
	mc := machine.Paper(32)
	loc, err := ompss.RunSim(mc, run)
	if err != nil {
		t.Fatal(err)
	}
	fifo, err := ompss.RunSim(mc, run, ompss.WithTuning(ompss.Tuning{Locality: ompss.Off}))
	if err != nil {
		t.Fatal(err)
	}
	if loc.Makespan >= fifo.Makespan {
		t.Fatalf("ray-rot on 32 cores: locality %v, FIFO %v; locality must be faster", loc.Makespan, fifo.Makespan)
	}
}
