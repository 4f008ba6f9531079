// Command benchmark is the repository's one benchmark: six named
// workloads, twelve end-to-end metrics and a per-layer ledger, driven
// through the public functions of the layers and timed from outside.
//
//	go run -C benchmark .                       every workload (a process each), both phases
//	go run -C benchmark . -workload fine-chains one workload
//	go run -C benchmark . -workload serve-mix -seed 7 -seconds 10 -trace 0
//	    the end-to-end window only; the last line of output is one JSON object
//	go run -C benchmark . -workload serve-mix -trace 1
//	    the traced pass only: per-layer metrics, spans in out/trace-serve-mix.json
//	go run -C benchmark . -o results.json       append the run to a result file
//	go run -C benchmark . -compare a.json b.json
//
// See README.md for what each workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"time"

	"ompssgo/internal/dist"
	_ "ompssgo/internal/suite/distkern" // registers the dist kernels in coordinator and workers
)

func main() {
	dist.MaybeWorker() // a re-exec'd dist worker never returns from here

	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "workload seed: the only input of the generated programs")
		seconds  = flag.Float64("seconds", 15, "length of the timed window; the traced pass runs for half of it")
		trace    = flag.Int("trace", 2, "0: end-to-end window only; 1: traced pass only; 2: both")
		out      = flag.String("o", "", "append this run to a result file")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if *trace < 0 || *trace > 2 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace is 0, 1 or 2 and -seconds is positive")
		os.Exit(2)
	}
	if *workload == "all" {
		os.Exit(runEach(os.Args[1:]))
	}

	e := &env{
		W:        workers(),
		Seed:     *seed,
		Window:   time.Duration(*seconds * float64(time.Second)),
		OutDir:   "out",
		MinSetup: 300 * time.Millisecond,
	}
	rep, err := runWorkload(*workload, e, *trace != 1, *trace != 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	printReport(rep)
	if *out != "" {
		if err := appendRun(*out, e.W, resultRun{Seed: *seed, Seconds: *seconds, Workloads: []*report{rep}}); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
	}
	if rep.Failed > 0 {
		os.Exit(1)
	}
}

// runEach runs every workload in a process of its own, one after the
// other, with the flags this process was given. A workload then reads the
// same with "all" as on its own: peak_rss_mb is the high-water mark of one
// workload, and no workload inherits another's heap.
func runEach(args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, append(args[:len(args):len(args)], "-workload", w.Name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			code = 1
		}
	}
	return code
}

// printReport prints every metric of one workload by name with its unit,
// then the one-line JSON object a driver reads.
func printReport(r *report) {
	fmt.Printf("== %s  seed=%d  passes=%d  attempted=%d  failed=%d  inputs=%s\n",
		r.Workload, r.Seed, r.Passes, r.Attempted, r.Failed, r.Digest)
	for _, msg := range r.Errors {
		fmt.Printf("   FAILED %s\n", msg)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, map[string]value{}}

	if r.EndToEnd != nil {
		fmt.Printf("   times in reference-host units: the host ran %.3fx slower than the reference\n", r.HostSlowdown)
		for _, d := range endToEnd {
			v := r.EndToEnd[d.Name]
			note := ""
			if raw, ok := r.Raw[d.Name]; ok {
				note = fmt.Sprintf("  (as measured %.6g)", raw)
			}
			if d.Name == "latency_p99_ms" {
				note += fmt.Sprintf("  (p%g of %d samples)", r.TailLevel*100, r.Samples)
			}
			fmt.Printf("   %-28s %16.6g %-6s %-6s bound %.2f%s\n", d.Name, v, d.Unit, d.Better, d.Bound, note)
			line.Metrics[d.Name] = value{v, d.Unit}
		}
	}
	if r.PerLayer != nil {
		for _, d := range perLayer {
			v := r.PerLayer[d.Name]
			fmt.Printf("   %-34s %16.6g %-6s %s\n", d.Name, v, d.Unit, d.Better)
			line.Metrics[d.Name] = value{v, d.Unit}
		}
		fmt.Printf("   spans: %s\n", r.TraceFile)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
