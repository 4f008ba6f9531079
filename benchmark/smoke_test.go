package main

import (
	"encoding/json"
	"os"
	"regexp"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"ompssgo/internal/dist"
)

func TestMain(m *testing.M) {
	dist.MaybeWorker() // dist-kernels re-execs this test binary as its workers
	os.Exit(m.Run())
}

// manifest is BENCHMARK.json at the root of the repository.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the tables in metrics.go declare the same workloads
// and metrics, with names and units inside the manifest's alphabet.
func TestDeclaredNames(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, metrics.go %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := m.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: manifest %+v, metrics.go %+v", i, got, w)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: name or why outside the manifest's limits", w.Name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest has %d+%d metrics, metrics.go %d+%d",
			len(m.EndToEnd), len(m.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range endToEnd {
		if got := m.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: manifest %+v, metrics.go %+v", i, got, d)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
	}
	for i, d := range perLayer {
		if got := m.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: manifest %+v, metrics.go %+v", i, got, d)
		}
		if d.Moves == "" {
			t.Errorf("%s: no end-to-end metric it should move", d.Name)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%+v: name, unit or direction outside the manifest's alphabet", d)
		}
		if seen[d.Name] {
			t.Errorf("%s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// peak_rss_mb is read per pass: once the high-water mark is started
// afresh, memory that an earlier pass (or an earlier workload of the same
// process) touched and gave back no longer shows.
func TestRSSPeaksRestart(t *testing.T) {
	var r rssPeaks
	r.restart()
	if r.stuck {
		t.Skip("/proc/self/clear_refs cannot be written here: the benchmark falls back to the process's VmHWM")
	}
	const ballastMB = 64
	ballast := make([]byte, ballastMB<<20)
	for i := range ballast {
		ballast[i] = 1
	}
	r.note()
	ballast = nil
	debug.FreeOSMemory()
	r.restart()
	r.note()
	if with, without := r.mb[0], r.mb[1]; with-without < ballastMB/2 {
		t.Errorf("high-water mark %v MB with a %d MB ballast, %v MB after it was freed and the mark restarted", with, ballastMB, without)
	}
}

func keys(m map[string]float64) []string {
	var k []string
	for name := range m {
		k = append(k, name)
	}
	sort.Strings(k)
	return k
}

func declared(defs []metricDef) []string {
	var k []string
	for _, d := range defs {
		k = append(k, d.Name)
	}
	sort.Strings(k)
	return k
}

// Every workload runs in-process on Small inputs with a 200 ms window:
// nothing fails, and the metrics emitted are exactly the ones declared.
func TestSmoke(t *testing.T) {
	e := &env{W: workers(), Seed: 1, Small: true, Window: 200 * time.Millisecond, OutDir: t.TempDir()}
	for _, w := range workloads {
		rep, err := runWorkload(w.Name, e, true, true)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Attempted == 0 || rep.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, rep.Failed, rep.Attempted, rep.Errors)
		}
		for kind, pair := range map[string][2][]string{
			"end-to-end": {keys(rep.EndToEnd), declared(endToEnd)},
			"per-layer":  {keys(rep.PerLayer), declared(perLayer)},
		} {
			got, want := pair[0], pair[1]
			if len(got) != len(want) {
				t.Errorf("%s: %d %s metrics emitted, %d declared", w.Name, len(got), kind, len(want))
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s: %s metric %q emitted where %q is declared", w.Name, kind, got[i], want[i])
				}
			}
		}
		for _, d := range endToEnd {
			if rep.EndToEnd[d.Name] <= 0 {
				t.Errorf("%s: %s = %v, an end-to-end metric is never 0", w.Name, d.Name, rep.EndToEnd[d.Name])
			}
		}
		if _, err := os.Stat(rep.TraceFile); err != nil {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}
	}
}
