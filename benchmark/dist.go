package main

import (
	"bytes"
	"runtime"
	"time"

	"ompssgo/internal/dist"
	"ompssgo/internal/obs"
	"ompssgo/internal/suite/distkern"
	"ompssgo/internal/suite/kmeans"
	"ompssgo/internal/suite/md5"
	"ompssgo/internal/suite/rgbcmy"
	"ompssgo/internal/suite/rotate"
	"ompssgo/ompss"
)

// distKernels is the only workload where internal/dist runs: every pass
// sends the four adapted kernels, on seeded inputs, through ompss.RunDist
// on the unix transport. Worker spawn and handshake are inside the timed
// call because the domain pays them per run. The kernels split the layer:
// rgbcmy is frame-bound, md5 byte-bound, kmeans spawn-bound.
type distKernels struct {
	ps   []*part
	runs []func(*dist.RT) (uint64, error)

	acc      []distPass // one per untraced pass
	obs      obsSum
	tracedNS []int64
	recon    float64
}

// distPass is what one pass of the four kernels booked.
type distPass struct {
	st        dist.Stats // summed over the four runs
	wallNS    int64
	programNS int64
}

func (a *distPass) add(st dist.Stats) {
	a.st.Tasks += st.Tasks
	a.st.RoundTrips += st.RoundTrips
	a.st.BytesToWorkers += st.BytesToWorkers
	a.st.BytesFromWorkers += st.BytesFromWorkers
	a.st.BytesForwarded += st.BytesForwarded
	a.st.Transfers += st.Transfers
	a.st.TransfersAvoided += st.TransfersAvoided
	a.st.Chains += st.Chains
	a.st.ChainedTasks += st.ChainedTasks
	a.st.ForwardFallbacks += st.ForwardFallbacks
	a.st.Evictions += st.Evictions
	a.st.Graph.Edges += st.Graph.Edges
	a.st.Graph.Finished += st.Graph.Finished
	a.st.Graph.Renamed += st.Graph.Renamed
	a.st.Graph.RenameFallbacks += st.Graph.RenameFallbacks
	a.st.Graph.Writebacks += st.Graph.Writebacks
}

func (a *distPass) bytes() int64 {
	return a.st.BytesToWorkers + a.st.BytesFromWorkers + a.st.BytesForwarded
}

func (k *distKernels) parts() []*part { return k.ps }
func (k *distKernels) teardown()      {}

func (k *distKernels) setup(e *env) error {
	wr, wc, wm, wk := rotate.Default(), rgbcmy.Default(), md5.Default(), kmeans.Default()
	if e.Small {
		wr, wc, wm, wk = rotate.Small(), rgbcmy.Small(), md5.Small(), kmeans.Small()
	}
	wr.Seed ^= e.Seed
	wc.Seed ^= e.Seed
	wm.Seed ^= e.Seed
	wk.Seed ^= e.Seed
	k.ps = []*part{
		{name: "rotate", mult: 1, inst: rotate.New(wr)},
		{name: "rgbcmy", mult: 1, inst: rgbcmy.New(wc)},
		{name: "md5", mult: 1, inst: md5.New(wm)},
		{name: "kmeans", mult: 1, inst: kmeans.New(wk)},
	}
	k.runs = []func(*dist.RT) (uint64, error){
		func(rt *dist.RT) (uint64, error) { return distkern.RunRotate(rt, wr) },
		func(rt *dist.RT) (uint64, error) { return distkern.RunRGBCMY(rt, wc) },
		func(rt *dist.RT) (uint64, error) { return distkern.RunMD5(rt, wm) },
		func(rt *dist.RT) (uint64, error) { return distkern.RunKMeans(rt, wk) },
	}
	for _, p := range k.ps {
		p.reference()
	}
	return nil
}

func (k *distKernels) digest() string {
	var sums []uint64
	for _, p := range k.ps {
		sums = append(sums, p.want)
	}
	return digest(sums...)
}

// runDist sends kernel i through a fresh domain of `workers` processes.
// sink, when set, receives the merged cross-process trace.
func (k *distKernels) runDist(i, workers int, transport string, w *window, parent openSpan, sink func(*obs.Trace)) (st dist.Stats, wall, program time.Duration) {
	p := k.ps[i]
	opts := []ompss.DistOption{ompss.DistTransport(transport)}
	if sink != nil {
		opts = append(opts, ompss.DistTraceSink(sink))
	}
	var got uint64
	sp := parent.child("RunDist")
	st, err := ompss.RunDist(workers, func(rt *dist.RT) error {
		inner := sp.child("program")
		var err error
		got, err = k.runs[i](rt)
		program = inner.end()
		return err
	}, opts...)
	wall = sp.end()
	switch {
	case err != nil:
		w.check(false, "%s/dist: %v", p.name, err)
	default:
		w.check(got == p.want, "%s/dist: checksum %#x, sequential reference %#x", p.name, got, p.want)
	}
	return st, wall, program
}

func (k *distKernels) measure(e *env, d time.Duration, w *window, traced bool) {
	k.acc, k.obs, k.tracedNS, k.recon = nil, obsSum{}, nil, 1
	passLoop(d, w, func() {
		pass := w.spans.root("pass")
		var acc distPass
		var tracedWall int64
		for i, p := range k.ps {
			kern := pass.child(p.name)
			st, wall, program := k.runDist(i, e.W, ompss.DistTransportUnix, w, kern, nil)
			p.sut = append(p.sut, wall.Nanoseconds())
			acc.add(st)
			acc.wallNS += wall.Nanoseconds()
			acc.programNS += program.Nanoseconds()
			w.tasks += uint64(st.Tasks)
			w.taskSecs += wall.Seconds()

			if traced {
				var merged *obs.Trace
				tst, twall, _ := k.runDist(i, e.W, ompss.DistTransportUnix, w, kern, func(m *obs.Trace) { merged = m })
				tracedWall += twall.Nanoseconds()
				if merged == nil || dist.ReconcileTrace(merged, tst) != nil {
					k.recon = 0
				}
				if merged != nil {
					k.obs.add(merged)
				}
			}

			p.refs(e.W, w, kern)
			kern.end()
		}
		pass.end()
		k.acc = append(k.acc, acc)
		if traced {
			k.tracedNS = append(k.tracedNS, tracedWall)
		}
	})
	var moved []int64
	for _, a := range k.acc {
		moved = append(moved, a.bytes())
	}
	w.bytesPerPass = medianInt(moved)
}

// medianOf is the median over passes of one booked quantity.
func (k *distKernels) medianOf(f func(*distPass) int64) float64 {
	var v []int64
	for i := range k.acc {
		v = append(v, f(&k.acc[i]))
	}
	return medianInt(v)
}

func (k *distKernels) layers(e *env, w *window, m map[string]float64) {
	wall := k.medianOf(func(a *distPass) int64 { return a.wallNS })
	m["dist.spawn_shutdown_ms"] = k.medianOf(func(a *distPass) int64 { return a.wallNS - a.programNS }) / 1e6
	m["dist.program_ms"] = k.medianOf(func(a *distPass) int64 { return a.programNS }) / 1e6
	for _, p := range k.ps {
		m["dist."+p.name+"_ms"] = medianInt(p.sut) / 1e6
	}
	tasks := k.medianOf(func(a *distPass) int64 { return int64(a.st.Tasks) })
	m["dist.tasks"] = tasks
	m["dist.round_trips_per_task"] = ratio(k.medianOf(func(a *distPass) int64 { return int64(a.st.RoundTrips) }), tasks)
	m["dist.bytes_to_workers"] = k.medianOf(func(a *distPass) int64 { return a.st.BytesToWorkers })
	m["dist.bytes_from_workers"] = k.medianOf(func(a *distPass) int64 { return a.st.BytesFromWorkers })
	m["dist.bytes_forwarded"] = k.medianOf(func(a *distPass) int64 { return a.st.BytesForwarded })
	avoided := k.medianOf(func(a *distPass) int64 { return int64(a.st.TransfersAvoided) })
	made := k.medianOf(func(a *distPass) int64 { return int64(a.st.Transfers) })
	m["dist.cache_hit_ratio"] = ratio(avoided, avoided+made)
	m["dist.chains"] = k.medianOf(func(a *distPass) int64 { return int64(a.st.Chains) })
	m["dist.chained_tasks"] = k.medianOf(func(a *distPass) int64 { return int64(a.st.ChainedTasks) })
	m["dist.forward_fallbacks"] = k.medianOf(func(a *distPass) int64 { return int64(a.st.ForwardFallbacks) })
	m["dist.evictions"] = k.medianOf(func(a *distPass) int64 { return a.st.Evictions })
	m["dist.trace_reconciled"] = k.recon

	// The coordinator's dependence tracker is the same core.Graph.
	var g counters
	for _, a := range k.acc {
		g.add(countersOf(ompss.RunStats{Graph: a.st.Graph}), 1)
	}
	g.fill(m, len(k.acc))
	k.obs.fill(m)
	m["obs.trace_overhead_pct"] = (ratio(medianInt(k.tracedNS), wall) - 1) * 100

	// One pass on one worker process, one over TCP, and an empty program.
	quiet := &window{spans: newSpanLog(false)}
	var one, oneProgram, tcp, seq float64
	for i, p := range k.ps {
		_, wallNS, programNS := k.runDist(i, 1, ompss.DistTransportUnix, quiet, quiet.spans.root("w1"), nil)
		one += float64(wallNS.Nanoseconds())
		oneProgram += float64(programNS.Nanoseconds())
		_, wallNS, _ = k.runDist(i, e.W, ompss.DistTransportTCP, quiet, quiet.spans.root("tcp"), nil)
		tcp += float64(wallNS.Nanoseconds())
		seq += medianInt(p.seq)
	}
	m["dist.overhead_vs_seq"] = ratio(oneProgram, seq)
	m["dist.speedup_w2_over_w1"] = ratio(one, wall)
	m["dist.tcp_over_unix"] = ratio(tcp, wall)
	w.absorb(quiet)

	m["dist.frame_roundtrip_ns"], m["dist.frame_roundtrip_allocs"] = frameProbe(w)
}

// frameProbe encodes and decodes one 4 KiB task-dispatch frame: the
// coordinator's marshal cost per round trip.
func frameProbe(w *window) (ns, allocs float64) {
	payload := make([]byte, 4096)
	f := &dist.Frame{Task: &dist.TaskMsg{
		ID: 7, Kernel: "bench.kernel", Args: []byte{1, 2, 3, 4}, NIn: 1,
		Reads:  []dist.WireRef{{Datum: 1, Ver: 2, Size: 4096, Bytes: payload}},
		Writes: []dist.WireOut{{Datum: 3, Ver: 1, Size: 4096, SeedFrom: -1}},
	}}
	var buf bytes.Buffer
	const n = 2000
	trip := func() {
		buf.Reset()
		if err := dist.WriteFrame(&buf, f); err != nil {
			w.fail("frame probe: %v", err)
		}
		if _, err := dist.ReadFrame(&buf); err != nil {
			w.fail("frame probe: %v", err)
		}
	}
	trip()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		trip()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / n, float64(after.Mallocs-before.Mallocs) / n
}
