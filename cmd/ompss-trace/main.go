// Command ompss-trace records, analyzes, and exports observability traces
// of the runtime (internal/obs) — the repo's answer to the Extrae/Paraver
// tooling the OmpSs ecosystem ships, and the instrument behind the paper's
// "where did the time go" analyses.
//
//	ompss-trace record -bench h264dec -workers 4 -o h264.trace.json
//	    run a suite app natively with a recorder attached, save the raw trace
//	ompss-trace record -bench c-ray -sim -cores 16 -o cray.trace.json
//	    ... on the simulated machine (deterministic virtual-time trace)
//	ompss-trace analyze h264.trace.json
//	    parallelism profile, critical path + slack, per-worker utilization,
//	    steal matrix, top tasks by exclusive time
//	ompss-trace export -format chrome -o h264.chrome.json h264.trace.json
//	    Chrome trace-event JSON: load in chrome://tracing or ui.perfetto.dev
//	ompss-trace export -format paraver -o h264.csv h264.trace.json
//	    Paraver-flavored CSV timeline
//	ompss-trace export -format dot h264.trace.json | dot -Tsvg > h264.svg
//	    the task graph (Graphviz): one node per task, one edge per dependence
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ompssgo/internal/dist"
	"ompssgo/internal/obs"
	"ompssgo/internal/suite"
	"ompssgo/internal/suite/distkern"
	"ompssgo/machine"
	"ompssgo/ompss"
)

func main() {
	// Distributed recording re-execs this binary as worker processes; a
	// spawned child diverts into its serve loop here and never returns.
	dist.MaybeWorker()
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "analyze":
		err = analyze(os.Args[2:])
	case "export":
		err = export(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ompss-trace: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  ompss-trace record  -bench <name> [-workers N] [-small] [-sim] [-cores N] [-cap N] [-o FILE]
  ompss-trace record  -bench <name> -dist [-dist-workers N] [-small] [-cap N] [-o FILE]
  ompss-trace analyze [-top N] FILE
  ompss-trace export  -format chrome|paraver|dot [-o FILE] FILE`)
}

// record runs one suite benchmark with a recorder attached and saves the
// raw trace.
func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var (
		benchName = fs.String("bench", "", "suite benchmark to record (required)")
		workers   = fs.Int("workers", 2, "native worker count (OMP_NUM_THREADS equivalent)")
		small     = fs.Bool("small", false, "use the reduced test workload")
		sim       = fs.Bool("sim", false, "record on the simulated machine (virtual-time trace)")
		cores     = fs.Int("cores", 8, "simulated core count (with -sim)")
		distRun   = fs.Bool("dist", false, "record on the distributed (multi-process) backend: one merged coordinator+worker trace")
		distW     = fs.Int("dist-workers", 2, "worker processes (with -dist)")
		capacity  = fs.Int("cap", obs.DefaultCapacity, "per-worker ring capacity in events")
		out       = fs.String("o", "trace.json", "output file for the raw trace")
	)
	fs.Parse(args)
	if *distRun {
		return recordDist(*benchName, *distW, *small, *capacity, *out)
	}
	if *benchName == "" {
		return fmt.Errorf("record needs -bench\nvalid benchmarks: %s", strings.Join(suite.Names(), ", "))
	}
	scale := suite.Default
	if *small {
		scale = suite.Small
	}
	in, err := suite.New(*benchName, scale)
	if err != nil {
		return fmt.Errorf("%v\nvalid benchmarks: %s", err, strings.Join(suite.Names(), ", "))
	}
	want := in.RunSeq()
	rec := obs.NewRecorder(obs.Capacity(*capacity))
	var got uint64
	if *sim {
		// A fresh instance: RunSeq warmed caches and, more importantly,
		// some suite apps reuse buffers between runs.
		in, _ = suite.New(*benchName, scale)
		if _, err := ompss.RunSim(machine.Paper(*cores), func(rt *ompss.Runtime) {
			got = in.RunOmpSs(rt)
		}, ompss.Observe(rec)); err != nil {
			return fmt.Errorf("sim run: %v", err)
		}
	} else {
		in, _ = suite.New(*benchName, scale)
		rt := ompss.New(ompss.Workers(*workers), ompss.Observe(rec))
		got = in.RunOmpSs(rt)
		rt.Shutdown()
	}
	if got != want {
		return fmt.Errorf("%s: checksum %#x, sequential reference %#x", *benchName, got, want)
	}
	tr := rec.Snapshot()
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %v", *out, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded %s (%s): %d events, %d dropped -> %s\n",
		*benchName, tr.Backend, len(tr.Events), tr.TotalDropped(), *out)
	return nil
}

// recordDist runs one dist-adapted workload across worker processes and
// saves the merged cross-process trace: coordinator dispatch lanes plus one
// clock-aligned track per worker incarnation. The merged stream is
// reconciled against the coordinator's transfer accounting before it is
// written — a trace that disagrees with the stats is an error, not an
// artifact.
func recordDist(benchName string, workers int, small bool, capacity int, out string) error {
	set := distkern.Default()
	if small {
		set = distkern.Small()
	}
	var names []string
	var wl *distkern.Workload
	for i := range set {
		names = append(names, set[i].Name)
		if set[i].Name == benchName {
			wl = &set[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("record -dist needs -bench\nvalid distributed benchmarks: %s", strings.Join(names, ", "))
	}
	want := wl.Seq()
	var got uint64
	var merged *obs.Trace
	stats, err := dist.Run(workers, func(rt *dist.RT) error {
		var rerr error
		got, rerr = wl.Run(rt)
		return rerr
	},
		dist.TraceWorkers(capacity),
		dist.TraceSink(func(m *obs.Trace) { merged = m }))
	if err != nil {
		return fmt.Errorf("dist run: %v", err)
	}
	if got != want {
		return fmt.Errorf("%s: checksum %#x, sequential reference %#x", benchName, got, want)
	}
	if merged == nil {
		return fmt.Errorf("dist run produced no merged trace")
	}
	if err := dist.ReconcileTrace(merged, stats); err != nil {
		return fmt.Errorf("merged trace disagrees with run stats: %v", err)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := merged.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %v", out, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded %s (dist, %d workers): %d events on %d tracks, %d dropped -> %s\n",
		benchName, workers, len(merged.Events), len(merged.Tracks), merged.TotalDropped(), out)
	return nil
}

func loadTrace(fs *flag.FlagSet) (*obs.Trace, error) {
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("want exactly one trace file argument")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return obs.ReadTrace(f)
}

// analyze prints the paper-style reports for a saved trace, optionally
// narrowed to one session's task graph (server traces interleave many).
func analyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	top := fs.Int("top", 10, "entries to show in the critical-path and top-task lists")
	session := fs.Uint64("session", 0, "analyze only this session's tasks (see -sessions)")
	list := fs.Bool("sessions", false, "list the trace's session IDs and task counts, then exit")
	fs.Parse(args)
	tr, err := loadTrace(fs)
	if err != nil {
		return err
	}
	if *list {
		ids, counts := tr.Sessions()
		if len(ids) == 0 {
			fmt.Println("no session-tagged submissions in this trace")
			return nil
		}
		for _, id := range ids {
			fmt.Printf("session %-6d %d tasks\n", id, counts[id])
		}
		return nil
	}
	if *session != 0 {
		tr = tr.FilterSession(*session)
	}
	return obs.Analyze(tr).WriteReport(os.Stdout, *top)
}

// exporters maps each -format value to its writer.
var exporters = map[string]func(io.Writer, *obs.Trace) error{
	"chrome":  obs.WriteChromeTrace,
	"paraver": obs.WriteParaverCSV,
	"dot":     obs.WriteDOT,
}

// export converts a saved trace to a viewer format.
func export(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	var (
		format = fs.String("format", "chrome", "output format: chrome|paraver|dot")
		out    = fs.String("o", "", "output file (default: stdout)")
	)
	fs.Parse(args)
	// Validate before touching the output: os.Create truncates, and a
	// typo'd format must not cost the user an existing export.
	write, ok := exporters[*format]
	if !ok {
		return fmt.Errorf("unknown format %q (want chrome, paraver or dot)", *format)
	}
	tr, err := loadTrace(fs)
	if err != nil {
		return err
	}
	if *out == "" {
		return write(os.Stdout, tr)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	err = write(f, tr)
	// Close errors matter: they are where a full filesystem surfaces.
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
