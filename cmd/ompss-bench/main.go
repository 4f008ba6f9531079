// Command ompss-bench regenerates the paper's evaluation artifacts on the
// simulated 4-socket cc-NUMA machine:
//
//	ompss-bench -table1              reproduce Table 1 (speedup factors)
//	ompss-bench -table1 -paper       ... with the published numbers interleaved
//	ompss-bench -ablation barrier    §4 rgbcmy polling-vs-blocking mechanism
//	ompss-bench -ablation locality   §4 ray-rot locality-scheduling mechanism
//	ompss-bench -ablation granularity §4 h264dec task-granularity dilemma
//	ompss-bench -ablation occupancy  §5 polling-runtime core occupancy
//	ompss-bench -bench c-ray -cores 16   one cell, verbose
//	ompss-bench -usability           §2 per-variant implementation effort
//
// -small switches to the reduced test workloads; -cores overrides the core
// list (comma-separated); -q suppresses per-cell progress. Wall-clock
// measurement of the native, service and distributed runtimes is the
// benchmark's job: go run -C benchmark . (see benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ompssgo/internal/bench"
	"ompssgo/internal/suite"
)

func main() {
	var (
		table1    = flag.Bool("table1", false, "reproduce Table 1 across the full suite")
		withPaper = flag.Bool("paper", false, "interleave the paper's published numbers")
		ablation  = flag.String("ablation", "", "run a mechanism ablation: barrier|locality|granularity|occupancy")
		oneBench  = flag.String("bench", "", "measure a single benchmark")
		usability = flag.Bool("usability", false, "report per-variant implementation effort (§2 usability)")
		coresFlag = flag.String("cores", "", "comma-separated core counts (default 1,8,16,24,32)")
		small     = flag.Bool("small", false, "use the reduced test workloads")
		quiet     = flag.Bool("q", false, "suppress per-cell progress")
	)
	flag.Parse()

	scale := suite.Default
	if *small {
		scale = suite.Small
	}
	cores := bench.PaperCores
	if *coresFlag != "" {
		cores = nil
		for _, tok := range strings.Split(*coresFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || n < 1 {
				fatalf("bad -cores value %q: want a positive integer", tok)
			}
			cores = append(cores, n)
		}
	}
	var progress io.Writer
	if !*quiet {
		progress = os.Stderr
	}

	switch {
	case *usability:
		rows, err := bench.MeasureUsability("internal/suite")
		if err != nil {
			fatalf("usability: %v (run from the repository root)", err)
		}
		bench.WriteUsability(rows, os.Stdout)
	case *table1:
		t, err := bench.RunTable1(scale, cores, progress)
		if err != nil {
			fatalf("table1: %v", err)
		}
		fmt.Println("Table 1: speedup factors of OmpSs over Pthreads (simulated 4-socket cc-NUMA)")
		t.Write(os.Stdout, *withPaper)
	case *ablation != "":
		var err error
		switch *ablation {
		case "barrier":
			err = bench.BarrierAblation(scale, cores, os.Stdout)
		case "locality":
			err = bench.LocalityAblation(scale, cores, os.Stdout)
		case "granularity":
			err = bench.GranularityAblation(scale, cores, os.Stdout)
		case "occupancy":
			err = bench.OccupancyAblation(scale, os.Stdout)
		default:
			fatalf("unknown ablation %q", *ablation)
		}
		if err != nil {
			fatalf("ablation %s: %v", *ablation, err)
		}
	case *oneBench != "":
		in, err := suite.New(*oneBench, scale)
		if err != nil {
			fatalf("%v\nvalid benchmarks: %s", err, strings.Join(suite.Names(), ", "))
		}
		fmt.Printf("%-13s %5s %14s %14s %8s\n", "benchmark", "cores", "pthreads", "ompss", "factor")
		for _, p := range cores {
			cell, err := bench.MeasureCell(in, p)
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("%-13s %5d %14v %14v %8.2f\n",
				cell.Bench, p, cell.Pthreads, cell.OmpSs, cell.Factor())
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ompss-bench: "+format+"\n", args...)
	os.Exit(1)
}
