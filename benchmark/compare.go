package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"text/tabwriter"
)

// fingerprint identifies the host a result was taken on. Results from
// different fingerprints are not comparable and -compare refuses them.
type fingerprint struct {
	NumCPU    int    `json:"num_cpu"`
	GOARCH    string `json:"goarch"`
	GoVersion string `json:"go_version"`
	Workers   int    `json:"workers"`
}

// definition is a metric as the result file declares it.
type definition struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"` // end_to_end or per_layer
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Exact  bool    `json:"exact,omitempty"`
	Moves  string  `json:"moves,omitempty"`
}

// resultRun is one invocation of the benchmark.
type resultRun struct {
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Workloads []*report `json:"workloads"`
}

// resultFile is what -o writes: the host, the metric definitions and one
// entry per run, so that a set of runs is one file.
type resultFile struct {
	Schema      string       `json:"schema"`
	Fingerprint fingerprint  `json:"fingerprint"`
	Definitions []definition `json:"definitions"`
	Runs        []resultRun  `json:"runs"`
}

const resultSchema = "ompssgo/benchmark/v1"

func definitions() []definition {
	var defs []definition
	for _, d := range endToEnd {
		defs = append(defs, definition{d.Name, "end_to_end", d.Unit, d.Better, d.Bound, d.Exact, ""})
	}
	for _, d := range perLayer {
		defs = append(defs, definition{d.Name, "per_layer", d.Unit, d.Better, 0, d.Exact, d.Moves})
	}
	return defs
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, resultSchema)
	}
	return &rf, nil
}

// appendRun adds run to the result file at path, creating it if needed.
func appendRun(path string, w int, run resultRun) error {
	here := fingerprint{runtime.NumCPU(), runtime.GOARCH, runtime.Version(), w}
	rf, err := readResults(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		rf = &resultFile{Schema: resultSchema, Fingerprint: here}
	case err != nil:
		return err
	case rf.Fingerprint != here:
		return fmt.Errorf("%s was taken on %+v, this host is %+v", path, rf.Fingerprint, here)
	}
	rf.Definitions = definitions()
	rf.Runs = append(rf.Runs, run)
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// series collects one metric's values over the runs of a file.
func (rf *resultFile) series(workload, metric string) []float64 {
	var v []float64
	for _, run := range rf.Runs {
		for _, w := range run.Workloads {
			if w.Workload != workload {
				continue
			}
			if x, ok := w.EndToEnd[metric]; ok {
				v = append(v, x)
			} else if x, ok := w.PerLayer[metric]; ok {
				v = append(v, x)
			}
		}
	}
	return v
}

func (rf *resultFile) seeds() []int64 {
	var s []int64
	for _, run := range rf.Runs {
		s = append(s, run.Seed)
	}
	return s
}

func sameSeeds(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// worsening is how far b is worse than a, as a share of a, in the metric's
// own direction (negative when b is better).
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints one row per workload × metric of baseline a against
// candidate b and returns the exit code: 1 when an end-to-end metric got
// worse by more than its bound (or an exact one differs at equal seeds; the
// two virtual end-to-end metrics are exact only where workloadDef says so),
// 2 when the files cannot be compared. A metric whose run-to-run quartile
// spread exceeds its bound is reported as unresolved, not as unchanged.
func compareFiles(pathA, pathB string, out io.Writer) int {
	a, err := readResults(pathA)
	if err == nil {
		var b *resultFile
		if b, err = readResults(pathB); err == nil {
			if a.Fingerprint != b.Fingerprint {
				err = fmt.Errorf("fingerprints differ: %+v vs %+v", a.Fingerprint, b.Fingerprint)
			} else {
				return compareResults(a, b, out)
			}
		}
	}
	fmt.Fprintf(out, "benchmark: cannot compare: %v\n", err)
	return 2
}

func compareResults(a, b *resultFile, out io.Writer) int {
	exactSeeds := sameSeeds(a.seeds(), b.seeds())
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbaseline\tcandidate\tworse by\tspread\tbound\tverdict")
	code := 0
	for _, w := range workloads {
		for _, d := range definitions() {
			va, vb := a.series(w.Name, d.Name), b.series(w.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			if d.Kind == "per_layer" && ma == 0 && mb == 0 {
				continue // a layer this workload does not exercise
			}
			worse := worsening(ma, mb, d.Better)
			sa, oka := quartileSpread(va)
			sb, okb := quartileSpread(vb)
			spread, spreadCol := max(sa, sb), "n/a"
			if oka || okb {
				spreadCol = fmt.Sprintf("%.1f%%", spread*100)
			}
			verdict, boundCol := "info", ""
			switch {
			case d.Exact && exactSeeds && (d.Kind == "per_layer" || w.ExactVirtual):
				boundCol = "exact"
				if verdict = "ok"; ma != mb {
					verdict, code = "FAIL", 1
				}
			case d.Kind == "end_to_end":
				boundCol = fmt.Sprintf("%.0f%%", d.Bound*100)
				switch {
				case worse > d.Bound:
					verdict, code = "FAIL", 1
				case spread > d.Bound:
					verdict = "unresolved"
				default:
					verdict = "ok"
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%s\t%s\t%s\n",
				w.Name, d.Name, d.Unit, ma, mb, worse*100, spreadCol, boundCol, verdict)
		}
	}
	tw.Flush()
	if code != 0 {
		fmt.Fprintln(out, "benchmark: candidate is worse than baseline beyond a bound")
	}
	return code
}
