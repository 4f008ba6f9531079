package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"ompssgo/internal/suite"
	"ompssgo/machine"
	"ompssgo/ompss"
	"ompssgo/pthread"
)

// paperCores are the core counts of the paper's Table 1.
var paperCores = []int{1, 8, 16, 24, 32}

// paperTable1 holds the published speedup factors, for side-by-side
// comparison in EXPERIMENTS.md.
var paperTable1 = map[string][]float64{
	"c-ray":         {1.03, 1.11, 1.12, 1.11, 1.14},
	"rotate":        {1.06, 1.04, 1.09, 1.02, 0.86},
	"rgbcmy":        {1.02, 0.98, 1.14, 1.40, 1.53},
	"md5":           {1.00, 1.02, 1.10, 1.14, 1.05},
	"kmeans":        {0.91, 0.87, 1.30, 0.95, 0.88},
	"ray-rot":       {1.02, 1.10, 1.65, 1.46, 1.20},
	"rot-cc":        {1.00, 1.06, 1.17, 1.14, 1.04},
	"streamcluster": {0.93, 0.84, 0.91, 0.99, 0.99},
	"bodytrack":     {0.98, 0.99, 1.05, 0.97, 1.00},
	"h264dec":       {0.94, 1.07, 0.87, 0.57, 0.42},
}

// cell is one Table 1 measurement.
type cell struct {
	pthreads time.Duration // simulated makespan, Pthreads variant
	ompss    time.Duration // simulated makespan, OmpSs variant
}

// factor is the Table 1 entry: Pthreads time over OmpSs time (>1 means
// OmpSs is faster).
func (c cell) factor() float64 {
	if c.ompss == 0 {
		return 0
	}
	return float64(c.pthreads) / float64(c.ompss)
}

// measureCell simulates both variants of one benchmark at one core count.
func measureCell(in suite.Instance, cores int) (cell, error) {
	mc := machine.Paper(cores)
	stP, err := pthread.RunSim(mc, cores, func(m *pthread.Thread) { in.RunPthreads(m) })
	if err != nil {
		return cell{}, fmt.Errorf("%s/pthreads/%d: %w", in.Name(), cores, err)
	}
	stO, err := ompss.RunSim(mc, func(rt *ompss.Runtime) { in.RunOmpSs(rt) })
	if err != nil {
		return cell{}, fmt.Errorf("%s/ompss/%d: %w", in.Name(), cores, err)
	}
	return cell{pthreads: stP.Makespan, ompss: stO.Makespan}, nil
}

// table is a full speedup-factor table.
type table struct {
	cores []int
	rows  []string
	cells map[string]map[int]cell // bench -> cores -> cell
}

// runTable1 measures every benchmark of the suite at every core count.
// progress, if non-nil, receives one line per cell as it completes.
func runTable1(scale suite.Scale, cores []int, progress io.Writer) (*table, error) {
	t := &table{cores: cores, rows: suite.Names(), cells: map[string]map[int]cell{}}
	for _, name := range t.rows {
		in, err := suite.New(name, scale)
		if err != nil {
			return nil, err
		}
		t.cells[name] = map[int]cell{}
		for _, p := range cores {
			c, err := measureCell(in, p)
			if err != nil {
				return nil, err
			}
			t.cells[name][p] = c
			if progress != nil {
				fmt.Fprintf(progress, "# %-13s P=%-2d  pthreads=%-12v ompss=%-12v factor=%.2f\n",
					name, p, c.pthreads, c.ompss, c.factor())
			}
		}
	}
	return t, nil
}

// rowMean returns the geometric mean of a benchmark's factors across core
// counts (the paper's "Mean" column).
func (t *table) rowMean(bench string) float64 {
	var fs []float64
	for _, p := range t.cores {
		fs = append(fs, t.cells[bench][p].factor())
	}
	return geomean(fs)
}

// colMean returns the geometric mean of all benchmarks' factors at one core
// count (the paper's bottom "Mean" row).
func (t *table) colMean(cores int) float64 {
	var fs []float64
	for _, b := range t.rows {
		fs = append(fs, t.cells[b][cores].factor())
	}
	return geomean(fs)
}

// overallMean returns the geometric mean over every cell (the paper's
// headline "2% better" figure corresponds to 1.02 here).
func (t *table) overallMean() float64 {
	var fs []float64
	for _, b := range t.rows {
		for _, p := range t.cores {
			fs = append(fs, t.cells[b][p].factor())
		}
	}
	return geomean(fs)
}

func geomean(fs []float64) float64 {
	if len(fs) == 0 {
		return 0
	}
	var s float64
	for _, f := range fs {
		if f <= 0 {
			return 0
		}
		s += math.Log(f)
	}
	return math.Exp(s / float64(len(fs)))
}

// write renders the table in the paper's layout, optionally with the
// published numbers interleaved for comparison.
func (t *table) write(w io.Writer, withPaper bool) {
	fmt.Fprintf(w, "%-14s", "Benchmark")
	for _, p := range t.cores {
		fmt.Fprintf(w, "%8d", p)
	}
	fmt.Fprintf(w, "%8s\n", "Mean")
	for _, b := range t.rows {
		fmt.Fprintf(w, "%-14s", b)
		for _, p := range t.cores {
			fmt.Fprintf(w, "%8.2f", t.cells[b][p].factor())
		}
		fmt.Fprintf(w, "%8.2f\n", t.rowMean(b))
		if withPaper {
			if ref, ok := paperTable1[b]; ok {
				fmt.Fprintf(w, "%-14s", "  (paper)")
				for i := range t.cores {
					if i < len(ref) {
						fmt.Fprintf(w, "%8.2f", ref[i])
					}
				}
				fmt.Fprintf(w, "%8.2f\n", geomean(ref))
			}
		}
	}
	fmt.Fprintf(w, "%-14s", "Mean")
	for _, p := range t.cores {
		fmt.Fprintf(w, "%8.2f", t.colMean(p))
	}
	fmt.Fprintf(w, "%8.2f\n", t.overallMean())
	if withPaper {
		fmt.Fprintf(w, "%-14s%8.2f%8.2f%8.2f%8.2f%8.2f%8.2f\n",
			"  (paper)", 0.99, 1.00, 1.12, 1.05, 0.97, 1.02)
	}
}
