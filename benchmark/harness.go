package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"ompssgo/internal/suite"
	"ompssgo/machine"
	"ompssgo/ompss"
	"ompssgo/pthread"
)

// env is what one benchmark run is parameterized by. Seed is the only
// input that reaches the generated programs.
type env struct {
	W      int   // runtime workers: min(nproc, 4)
	Seed   int64 // -seed
	Small  bool  // suite.Small inputs and short passes (smoke test)
	Window time.Duration
	OutDir string
	// MinSetup is how long set-up is repeated for (at least three times):
	// setup_s is the median repetition.
	MinSetup time.Duration
}

func (e *env) scale() suite.Scale {
	if e.Small {
		return suite.Small
	}
	return suite.Default
}

func workers() int { return min(runtime.NumCPU(), 4) }

// part is one verified unit of a workload's pass: an application, a
// kernel, an endpoint, a simulation cell. Its three variants compute the
// same result over the same seeded inputs; the workload decides through
// which layer the OmpSs variant runs (native runtime, serve handler,
// RunDist, simulator).
type part struct {
	name string
	mult int // occurrences in one pass
	inst suite.Instance
	opts []ompss.Option // runtime options the OmpSs variant needs
	want uint64         // RunSeq checksum
	// simCores is the simulated machine the part's virtual reading is taken
	// on; 0 means the paper's 32 cores.
	simCores int

	// Samples of one window, in ns. The two references are taken next to
	// the system under test in every pass, so that a host that changes
	// speed mid-run slows all three alike and the ratios hold.
	seq []int64 // sequential variant
	pth []int64 // Pthreads variant on W native threads
	sut []int64 // system under test: the OmpSs variant through the workload's layer
}

func (p *part) reset() { p.seq, p.pth, p.sut = p.seq[:0], p.pth[:0], p.sut[:0] }

// reference runs the sequential variant once in set-up: it fixes the
// checksum every other run must reproduce.
func (p *part) reference() { p.want = p.inst.RunSeq() }

// refs times the sequential and the Pthreads variant once, as children of
// parent, and verifies both.
func (p *part) refs(workers int, w *window, parent openSpan) {
	sp := parent.child("RunSeq")
	got := p.inst.RunSeq()
	p.seq = append(p.seq, sp.end().Nanoseconds())
	w.check(got == p.want, "%s/seq: checksum %#x, reference %#x", p.name, got, p.want)
	sp = parent.child("RunPthreads")
	got = p.inst.RunPthreads(pthread.Native(workers).Main())
	p.pth = append(p.pth, sp.end().Nanoseconds())
	w.check(got == p.want, "%s/pthreads: checksum %#x, sequential reference %#x", p.name, got, p.want)
}

// window is what one measured interval of a workload yields.
type window struct {
	elapsed   time.Duration
	passes    int
	attempted int
	failed    int
	tasks     uint64  // tasks the runtime finished
	taskSecs  float64 // seconds the OmpSs path was timed for
	// perRequest is set where operations arrive one by one (serve-mix):
	// latency is then taken over single operations. Elsewhere a pass is a
	// fixed batch and latency is taken over whole passes.
	perRequest bool
	// bytesPerPass is set by workloads that move bytes between processes;
	// 0 means "use the allocator's count".
	bytesPerPass float64
	allocBytes   uint64 // heap bytes allocated during the window
	mallocs      uint64
	spans        *spanLog
	host         hostProbe // the benchmark's own loop, timed between the passes
	rss          rssPeaks  // the resident-set high-water mark of every pass
	errs         []string
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	if len(w.errs) < 8 {
		w.errs = append(w.errs, fmt.Sprintf(format, args...))
	}
}

// absorb takes over the verdicts of a side window (a probe run outside the
// measured passes).
func (w *window) absorb(side *window) {
	w.attempted += side.attempted
	w.failed += side.failed
	w.errs = append(w.errs, side.errs...)
}

// check counts one verified operation.
func (w *window) check(ok bool, format string, args ...any) {
	w.attempted++
	if !ok {
		w.fail(format, args...)
	}
}

// workload is one of the six named workloads.
type workload interface {
	// setup generates the seeded inputs, takes the reference checksums and
	// opens the system under test. It is timed (setup_s) and repeated;
	// teardown undoes it.
	setup(e *env) error
	teardown()
	// parts lists the units of one pass, valid after setup.
	parts() []*part
	// measure runs passes for d (at least one) and fills the parts' samples.
	// With traced set it records the layers' own traces too.
	measure(e *env, d time.Duration, w *window, traced bool)
	// layers adds the workload's per-layer metrics after a traced measure.
	layers(e *env, w *window, m map[string]float64)
	// digest fingerprints the generated inputs and schedules.
	digest() string
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "suite-native":
		return &suiteNative{}, nil
	case "fine-chains":
		return &fineGrain{readers: false}, nil
	case "fine-readers":
		return &fineGrain{readers: true}, nil
	case "serve-mix":
		return &serveMix{}, nil
	case "dist-kernels":
		return &distKernels{}, nil
	case "sim-table1":
		return &simTable1{}, nil
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// report is one workload's outcome.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Digest    string   `json:"input_digest"`
	Passes    int      `json:"passes"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// HostSlowdown is how slow the benchmark's own loop ran during the
	// window (see host.go). The end-to-end times are divided, the rates
	// multiplied by it; Raw holds them as measured.
	HostSlowdown float64            `json:"host_slowdown,omitempty"`
	Raw          map[string]float64 `json:"raw,omitempty"`
	TailLevel    float64            `json:"latency_p99_level"`
	Samples      int                `json:"latency_samples"`
	EndToEnd     map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
	TraceFile    string             `json:"trace_file,omitempty"`
}

// runWorkload sets a workload up, warms it, and measures it: the
// end-to-end window with tracing off (e2e), the traced pass with the
// benchmark's span log and the layers' recorders on (traced), or both.
func runWorkload(name string, e *env, e2e, traced bool) (*report, error) {
	wl, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: name, Seed: e.Seed}

	// Set-up, repeated: the median repetition is setup_s, the last one is
	// kept.
	var setups []int64
	var setupHost hostProbe
	begin := time.Now()
	for len(setups) < 3 || (time.Since(begin) < e.MinSetup && len(setups) < 25) {
		if len(setups) > 0 {
			wl.teardown()
		}
		setupHost.sample()
		start := time.Now()
		if err := wl.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(start).Nanoseconds())
	}
	setupHost.sample()
	defer wl.teardown()
	rep.Digest = wl.digest()

	// Warm-up pass: caches fill, lazy references are taken, pools grow.
	warm := &window{spans: newSpanLog(false)}
	wl.measure(e, 0, warm, false)
	if warm.failed > 0 {
		rep.Attempted, rep.Failed, rep.Errors = warm.attempted, warm.failed, warm.errs
		return rep, nil
	}

	if e2e {
		virtO, virtP, err := virtualCells(wl)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		for _, p := range wl.parts() {
			p.reset()
		}
		w := &window{spans: newSpanLog(false)}
		w.rss.restart()
		measured(func() { wl.measure(e, e.Window, w, false) }, w)
		endToEndMetrics(wl.parts(), w, virtO, virtP, rep)
		rep.Raw["setup_s"] = medianInt(setups) / 1e9
		rep.EndToEnd["setup_s"] = rep.Raw["setup_s"] / setupHost.slowdown()
		rep.EndToEnd["peak_rss_mb"] = w.rss.peak()
		rep.Passes, rep.Attempted, rep.Failed, rep.Errors = w.passes, w.attempted, w.failed, w.errs
	}

	if traced {
		for _, p := range wl.parts() {
			p.reset()
		}
		w := &window{spans: newSpanLog(true)}
		measured(func() { wl.measure(e, e.Window/2, w, true) }, w)
		m := map[string]float64{}
		for _, d := range perLayer {
			m[d.Name] = 0 // a layer the workload does not exercise
		}
		wl.layers(e, w, m)
		m["host.slowdown"] = w.host.slowdown()
		rep.PerLayer = m
		rep.TraceFile, err = w.spans.write(e.OutDir, name, e.Seed)
		if err != nil {
			return nil, fmt.Errorf("%s: writing trace: %w", name, err)
		}
		if cov := selfCoverage(w.spans.spans); math.Abs(cov-1) > 0.05 {
			w.fail("self times cover %.3f of their root spans (want 1 ± 0.05)", cov)
		}
		rep.Attempted += w.attempted
		rep.Failed += w.failed
		rep.Errors = append(rep.Errors, w.errs...)
		if !e2e {
			rep.Passes = w.passes
		}
	}
	return rep, nil
}

// measured runs fn between two heap-statistics readings.
func measured(fn func(), w *window) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	w.allocBytes = after.TotalAlloc - before.TotalAlloc
	w.mallocs = after.Mallocs - before.Mallocs
}

// passLoop runs pass until d has elapsed, at least once, timing the host
// probe between passes. The time spent on the probe is not part of the
// window.
func passLoop(d time.Duration, w *window, pass func()) {
	start := time.Now()
	for {
		pass()
		w.passes++
		w.rss.note()
		w.host.keepUp(start)
		if time.Since(start) >= d {
			break
		}
	}
	w.elapsed = time.Since(start) - w.host.spent
}

// endToEndMetrics derives the metrics every workload shares from the
// parts' samples. Timings are medians per part, summed over the pass. They
// go into rep.Raw as measured and into rep.EndToEnd in reference-host units
// (see host.go): times divided, rates multiplied by the slowdown the
// benchmark's own loop saw during the window.
func endToEndMetrics(parts []*part, w *window, virtO, virtP []time.Duration, rep *report) {
	var wallNS, refWallNS, seqNS, pthNS float64
	var all []int64
	if !w.perRequest {
		all = make([]int64, len(parts[0].sut))
	}
	for _, p := range parts {
		sut := medianInt(p.sut) * float64(p.mult)
		wallNS += sut
		if w.perRequest {
			all = append(all, p.sut...)
		} else {
			for i, ns := range p.sut {
				all[i] += ns * int64(p.mult)
			}
		}
		if p.inst != nil {
			refWallNS += sut
			seqNS += medianInt(p.seq) * float64(p.mult)
			pthNS += medianInt(p.pth) * float64(p.mult)
		}
	}
	sorted := sortedCopy(all)
	p99, level, n := tail(all)
	rep.TailLevel, rep.Samples = level, n

	bytes := w.bytesPerPass
	if bytes == 0 && w.passes > 0 {
		bytes = float64(w.allocBytes) / float64(w.passes)
	}
	var virt float64
	for _, d := range virtO {
		virt += float64(d.Nanoseconds()) / 1e6
	}
	slow := w.host.slowdown()
	rep.HostSlowdown = slow
	rep.Raw = map[string]float64{
		"wall_ms":        wallNS / 1e6,
		"latency_p50_ms": quantile(sorted, 0.50) / 1e6,
		"latency_p99_ms": p99 / 1e6,
		"tasks_per_s":    ratio(float64(w.tasks), w.taskSecs),
		"req_per_s":      ratio(float64(w.attempted), w.elapsed.Seconds()),
	}
	rep.EndToEnd = map[string]float64{
		"wall_ms":             rep.Raw["wall_ms"] / slow,
		"latency_p50_ms":      rep.Raw["latency_p50_ms"] / slow,
		"latency_p99_ms":      rep.Raw["latency_p99_ms"] / slow,
		"tasks_per_s":         rep.Raw["tasks_per_s"] * slow,
		"req_per_s":           rep.Raw["req_per_s"] * slow,
		"speedup_vs_seq":      ratio(seqNS, refWallNS),
		"factor_vs_pthreads":  ratio(pthNS, refWallNS),
		"bytes_moved":         bytes,
		"virtual_makespan_ms": virt,
		"table1_geomean":      geomeanRatio(virtP, virtO),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// geomeanRatio is the geometric mean of num[i]/den[i].
func geomeanRatio(num, den []time.Duration) float64 {
	if len(num) == 0 {
		return 0
	}
	var s float64
	for i := range num {
		if num[i] <= 0 || den[i] <= 0 {
			return 0
		}
		s += math.Log(float64(num[i]) / float64(den[i]))
	}
	return math.Exp(s / float64(len(num)))
}

// simCell simulates both variants of one part on the paper's machine with
// `cores` cores enabled and checks their results.
func simCell(p *part, cores int) (o, pt machine.Stats, err error) {
	mc := machine.Paper(cores)
	var got uint64
	o, err = ompss.RunSim(mc, func(rt *ompss.Runtime) { got = p.inst.RunOmpSs(rt) }, p.opts...)
	if err != nil {
		return o, pt, fmt.Errorf("%s/ompss/p%d: %w", p.name, cores, err)
	}
	if got != p.want {
		return o, pt, fmt.Errorf("%s/ompss/p%d: checksum %#x, sequential reference %#x", p.name, cores, got, p.want)
	}
	pt, err = pthread.RunSim(mc, cores, func(m *pthread.Thread) { got = p.inst.RunPthreads(m) })
	if err != nil {
		return o, pt, fmt.Errorf("%s/pthreads/p%d: %w", p.name, cores, err)
	}
	if got != p.want {
		return o, pt, fmt.Errorf("%s/pthreads/p%d: checksum %#x, sequential reference %#x", p.name, cores, got, p.want)
	}
	return o, pt, nil
}

// virtualCells gives every workload its reading of virtual_makespan_ms and
// table1_geomean: the same seeded parts, OmpSs and Pthreads variants, on
// the simulated 32-core machine (8 cores for the fine-grain programs,
// whose few chains leave the other 24 polling for 12M events). sim-table1
// takes its cells from its own passes instead (the full core sweep).
func virtualCells(wl workload) (o, p []time.Duration, err error) {
	if own, ok := wl.(interface {
		virtual() (o, p []time.Duration, err error)
	}); ok {
		return own.virtual()
	}
	for _, pt := range wl.parts() {
		if pt.inst == nil {
			continue
		}
		cores := pt.simCores
		if cores == 0 {
			cores = 32
		}
		so, sp, err := simCell(pt, cores)
		if err != nil {
			return nil, nil, err
		}
		o = append(o, so.Makespan)
		p = append(p, sp.Makespan)
	}
	return o, p, nil
}
