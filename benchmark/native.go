package main

import (
	"time"

	"ompssgo/internal/obs"
	"ompssgo/internal/suite"
	"ompssgo/ompss"
)

// counters are the engine counters the ledger reads from Runtime.Stats,
// as a vector so that readings add and subtract.
type counters [11]float64

const (
	cFinished = iota
	cEdges
	cRenamed
	cRenameFallbacks
	cWritebacks
	cLocalPops
	cPrioPops
	cAffinityPops
	cGlobalPops
	cSteals
	cStealTries
)

func countersOf(st ompss.RunStats) counters {
	g, s := st.Graph, st.Sched
	return counters{
		cFinished: float64(g.Finished), cEdges: float64(g.Edges), cRenamed: float64(g.Renamed),
		cRenameFallbacks: float64(g.RenameFallbacks), cWritebacks: float64(g.Writebacks),
		cLocalPops: float64(s.LocalPops), cPrioPops: float64(s.PrioPops), cAffinityPops: float64(s.AffinityPops),
		cGlobalPops: float64(s.GlobalPops), cSteals: float64(s.Steals), cStealTries: float64(s.StealTries),
	}
}

// add accumulates o scaled by sign: +1 for a finished runtime's reading,
// −1 to take an earlier reading of a long-lived runtime back out.
func (c *counters) add(o counters, sign float64) {
	for i := range c {
		c[i] += sign * o[i]
	}
}

// fill reports the internal/core counters per pass.
func (c *counters) fill(m map[string]float64, passes int) {
	n := float64(max(passes, 1))
	pops := c[cLocalPops] + c[cPrioPops] + c[cAffinityPops] + c[cGlobalPops] + c[cSteals]
	m["core.edges_per_task"] = ratio(c[cEdges], c[cFinished])
	m["core.steals"] = c[cSteals] / n
	m["core.steal_hit_ratio"] = ratio(c[cSteals], c[cStealTries])
	m["core.local_pop_share"] = ratio(c[cLocalPops], pops)
	m["core.global_pop_share"] = ratio(c[cGlobalPops], pops)
	m["core.renamed"] = c[cRenamed] / n
	m["core.rename_fallbacks"] = c[cRenameFallbacks] / n
	m["core.rename_hit_ratio"] = ratio(c[cRenamed], c[cRenamed]+c[cRenameFallbacks])
	m["core.writebacks"] = c[cWritebacks] / n
}

// obsSum accumulates the lifecycle split of the layers' own traces
// (ompss.Observe + obs.Analyze) over the traced runs of a window.
type obsSum struct {
	dep, queue, body     []int64 // ns per task
	exec, span, cp       int64
	laneSpan             int64 // Σ workers × span
	dropped              uint64
	tracedNS, untracedNS []int64 // paired run times, for the overhead
}

func (o *obsSum) add(tr *obs.Trace) {
	a := obs.Analyze(tr)
	for _, id := range a.Order {
		t := a.Tasks[id]
		if !t.Complete() || t.Skipped || t.Submit < 0 || t.Ready < t.Submit || t.Start < t.Ready {
			continue
		}
		o.dep = append(o.dep, t.Ready-t.Submit)
		o.queue = append(o.queue, t.Start-t.Ready)
		o.body = append(o.body, t.Exec)
	}
	o.exec += a.TotalExec
	o.span += a.Span
	o.laneSpan += int64(a.Workers) * a.Span
	o.cp += a.CPLen
	o.dropped += a.DroppedEvents
}

func (o *obsSum) fill(m map[string]float64) {
	queue := sortedCopy(o.queue)
	m["obs.dep_wait_us_p50"] = medianInt(o.dep) / 1e3
	m["obs.queue_wait_us_p50"] = quantile(queue, 0.50) / 1e3
	m["obs.queue_wait_us_p99"] = quantile(queue, 0.99) / 1e3
	m["obs.body_us_p50"] = medianInt(o.body) / 1e3
	m["obs.utilization"] = ratio(float64(o.exec), float64(o.laneSpan))
	m["obs.avg_parallelism"] = ratio(float64(o.exec), float64(o.span))
	m["obs.critical_path_share"] = ratio(float64(o.cp), float64(o.span))
	m["obs.dropped_events"] = float64(o.dropped)
	if un := medianInt(o.untracedNS); un > 0 {
		m["obs.trace_overhead_pct"] = (medianInt(o.tracedNS)/un - 1) * 100
	}
}

// allocsPerTask measures one untraced run of fn (which returns the tasks
// it finished) between two heap readings.
func allocsPerTask(fn func() uint64, m map[string]float64) {
	var tasks uint64
	w := &window{}
	measured(func() { tasks = fn() }, w)
	m["ompss.allocs_per_task"] = ratio(float64(w.mallocs), float64(tasks))
	m["ompss.bytes_per_task"] = ratio(float64(w.allocBytes), float64(tasks))
}

// ---- suite-native ----

// suiteNative is the paper's experiment on the host: every pass runs the
// ten applications through RunOmpSs on a fresh native runtime each, and
// through RunSeq and RunPthreads right after it.
type suiteNative struct {
	ps []*part

	stats  counters
	obs    obsSum
	traced [][]int64 // per part: traced-run ns
}

func (s *suiteNative) parts() []*part { return s.ps }
func (s *suiteNative) teardown()      {}

func (s *suiteNative) setup(e *env) error {
	s.ps = nil
	for _, name := range suite.Names() {
		in, err := seededApp(name, e.scale(), e.Seed)
		if err != nil {
			return err
		}
		p := &part{name: name, mult: 1, inst: in}
		p.reference()
		s.ps = append(s.ps, p)
	}
	return nil
}

func (s *suiteNative) digest() string {
	var sums []uint64
	for _, p := range s.ps {
		sums = append(sums, p.want)
	}
	return digest(sums...)
}

// runFresh times one program on a fresh native runtime: New → RunOmpSs →
// Shutdown, each a span under app. No runtime outlives the call, so the
// references timed after it have the host to themselves.
func runFresh(p *part, w *window, app openSpan, workers int, rec *obs.Recorder) (ns int64, st ompss.RunStats, run openSpan) {
	opts := append([]ompss.Option{ompss.Workers(workers)}, p.opts...)
	if rec != nil {
		opts = append(opts, ompss.Observe(rec))
	}
	sp := app.child("ompss.New")
	rt := ompss.New(opts...)
	d := sp.end()
	run = app.child("RunOmpSs")
	got := p.inst.RunOmpSs(rt)
	d += run.end()
	st = rt.Stats()
	sp = app.child("Shutdown")
	rt.Shutdown()
	d += sp.end()
	w.check(got == p.want, "%s/ompss: checksum %#x, sequential reference %#x", p.name, got, p.want)
	return d.Nanoseconds(), st, run
}

func (s *suiteNative) measure(e *env, d time.Duration, w *window, traced bool) {
	s.stats, s.obs = counters{}, obsSum{}
	s.traced = make([][]int64, len(s.ps))
	passLoop(d, w, func() {
		pass := w.spans.root("pass")
		for i, p := range s.ps {
			app := pass.child(p.name)
			ns, st, _ := runFresh(p, w, app, e.W, nil)
			p.sut = append(p.sut, ns)
			s.stats.add(countersOf(st), 1)
			w.tasks += st.Graph.Finished
			w.taskSecs += float64(ns) / 1e9
			if traced {
				rec := obs.NewRecorder()
				tns, _, _ := runFresh(p, w, app, e.W, rec)
				s.traced[i] = append(s.traced[i], tns)
				s.obs.add(rec.Snapshot())
			}
			p.refs(e.W, w, app)
			app.end()
		}
		pass.end()
	})
}

func (s *suiteNative) layers(e *env, w *window, m map[string]float64) {
	var wall, tracedWall, seq, pth float64
	for i, p := range s.ps {
		ms := medianInt(p.sut) / 1e6
		m["suite."+p.name+"_ms"] = ms
		wall += ms
		tracedWall += medianInt(s.traced[i]) / 1e6
		seq += medianInt(p.seq) / 1e6
		pth += medianInt(p.pth) / 1e6
	}
	m["suite.seq_ms"] = seq
	m["suite.pthreads_ms"] = pth
	m["suite.tasks_per_pass"] = ratio(float64(w.tasks), float64(w.passes))
	s.stats.fill(m, w.passes)
	s.obs.fill(m)
	m["obs.trace_overhead_pct"] = (ratio(tracedWall, wall) - 1) * 100

	// One pass on a single worker: what the second worker buys.
	quiet := &window{spans: newSpanLog(false)}
	var one float64
	for _, p := range s.ps {
		ns, _, _ := runFresh(p, quiet, quiet.spans.root("w1"), 1, nil)
		one += float64(ns) / 1e6
	}
	m["ompss.scaling_w_over_1"] = ratio(one, wall)

	var cycles []int64
	for i := 0; i < 200; i++ {
		start := time.Now()
		ompss.New(ompss.Workers(e.W)).Shutdown()
		cycles = append(cycles, time.Since(start).Nanoseconds())
	}
	m["ompss.runtime_cycle_us"] = medianInt(cycles) / 1e3

	allocsPerTask(func() uint64 {
		var tasks uint64
		for _, p := range s.ps {
			_, st, _ := runFresh(p, quiet, quiet.spans.root("allocs"), e.W, nil)
			tasks += st.Graph.Finished
		}
		return tasks
	}, m)
	w.absorb(quiet)
}

// ---- fine-chains and fine-readers ----

// fineGrain runs one of the two fine-grain programs like an application
// of the suite: a pass is one RunOmpSs (submit everything from the master,
// then Taskwait) on a fresh native runtime, plus the two references. (A
// runtime kept alive across passes would leave its polling workers beside
// the references, and a change to their idle back-off would then move the
// Pthreads time the OmpSs time is compared with.)
type fineGrain struct {
	readers bool

	p  *part
	ph *phases // the program's report of its latest RunOmpSs

	stats         counters
	obs           obsSum
	submit, drain []int64 // per pass: the master's submit loop and Taskwait
}

func (f *fineGrain) parts() []*part { return []*part{f.p} }
func (f *fineGrain) teardown()      {}

func (f *fineGrain) setup(e *env) error {
	f.p = &part{name: "chains", mult: 1, simCores: 8}
	if f.readers {
		rounds := 2000
		if e.Small {
			rounds = 200
		}
		prog := newReadersProg(rounds, 3, e.Seed)
		f.p.name, f.p.inst, f.p.opts = "readers", prog, readersOpts()
		f.ph = &prog.phases
	} else {
		tasks := 100000
		if e.Small {
			tasks = 4000
		}
		prog := newChainsProg(4*e.W, tasks, e.Seed)
		f.p.inst = prog
		f.ph = &prog.phases
	}
	f.p.reference()
	return nil
}

// digest covers what the seed generated: the values the readers check are
// in the reference checksum, the order the chains are visited in is not.
func (f *fineGrain) digest() string {
	words := []uint64{f.p.want}
	if prog, ok := f.p.inst.(*chainsProg); ok {
		for _, c := range prog.order {
			words = append(words, uint64(c))
		}
	}
	return digest(words...)
}

// eventsPerTask sizes the recorder's rings so that the busiest lane (the
// master: every submit, plus what it executes) holds a whole pass.
const eventsPerTask = 4

func (f *fineGrain) measure(e *env, d time.Duration, w *window, traced bool) {
	f.stats, f.obs, f.submit, f.drain = counters{}, obsSum{}, nil, nil
	passLoop(d, w, func() {
		pass := w.spans.root("pass")
		kern := pass.child(f.p.name)
		ns, st, run := runFresh(f.p, w, kern, e.W, nil)
		// The program's own submit loop and taskwait become child spans of
		// the RunOmpSs they happened in.
		run.childAt("submit-loop", f.ph.submitAt).endAfter(time.Duration(f.ph.submitNS))
		run.childAt("taskwait", f.ph.submitAt.Add(time.Duration(f.ph.submitNS))).endAfter(time.Duration(f.ph.drainNS))
		f.submit = append(f.submit, f.ph.submitNS)
		f.drain = append(f.drain, f.ph.drainNS)
		f.p.sut = append(f.p.sut, ns)
		f.stats.add(countersOf(st), 1)
		w.tasks += st.Graph.Finished
		w.taskSecs += float64(ns) / 1e9
		if traced {
			// The overhead is taken over the program's own phases: the
			// rings, which the benchmark sizes for a whole pass, are
			// allocated inside ompss.New.
			f.obs.untracedNS = append(f.obs.untracedNS, f.ph.submitNS+f.ph.drainNS)
			rec := obs.NewRecorder(obs.Capacity(eventsPerTask * int(st.Graph.Finished)))
			runFresh(f.p, w, kern, e.W, rec)
			f.obs.tracedNS = append(f.obs.tracedNS, f.ph.submitNS+f.ph.drainNS)
			if len(f.obs.tracedNS) <= 3 { // analysing a 100k-task trace costs more than recording it
				f.obs.add(rec.Snapshot())
			}
		}
		f.p.refs(e.W, w, kern)
		kern.end()
		pass.end()
	})
}

func (f *fineGrain) layers(e *env, w *window, m map[string]float64) {
	perPass := ratio(float64(w.tasks), float64(w.passes))
	m["ompss.submit_ns_per_task"] = ratio(medianInt(f.submit), perPass)
	m["ompss.drain_ns_per_task"] = ratio(medianInt(f.drain), perPass)
	f.stats.fill(m, w.passes)
	f.obs.fill(m)
	quiet := newSpanLog(false)
	allocsPerTask(func() uint64 {
		_, st, _ := runFresh(f.p, w, quiet.root("allocs"), e.W, nil)
		return st.Graph.Finished
	}, m)
	if !f.readers {
		coreProbes(m)
		m["ompss.spawn_ns"] = spawnProbe()
	}
}
