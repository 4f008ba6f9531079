package main

import (
	"fmt"
	"io"
	"time"

	"ompssgo/internal/suite"
	sh264dec "ompssgo/internal/suite/h264dec"
	srayrot "ompssgo/internal/suite/rayrot"
	srgbcmy "ompssgo/internal/suite/rgbcmy"
	"ompssgo/machine"
	"ompssgo/ompss"
	"ompssgo/pthread"
)

// variant is one OmpSs column of a core-sweep ablation: a program and the
// runtime options it is simulated under.
type variant struct {
	name string
	run  func(*ompss.Runtime)
	opts []ompss.Option
}

// sweep is the row loop the three core-sweep ablations share: one row per
// core count, the Pthreads makespan of pth under the column pthName, then
// each OmpSs variant's makespan on the same machine.
func sweep(w io.Writer, cores []int, pthName string, pth func(*pthread.Thread), variants []variant) error {
	fmt.Fprintf(w, "%-8s%16s", "cores", pthName)
	for _, v := range variants {
		fmt.Fprintf(w, "%16s", v.name)
	}
	fmt.Fprintln(w)
	for _, p := range cores {
		mc := machine.Paper(p)
		st, err := pthread.RunSim(mc, p, pth)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8d%16v", p, st.Makespan)
		for _, v := range variants {
			st, err := ompss.RunSim(mc, v.run, v.opts...)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%16v", st.Makespan)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// barrierAblation reruns rgbcmy across core counts with three
// synchronization regimes: the blocking Pthreads barrier (the paper's
// baseline), the polling OmpSs taskwait (the paper's explanation for
// rgbcmy's OmpSs win), and OmpSs forced into blocking waits (isolating the
// wait-mode contribution from the rest of the task machinery).
func barrierAblation(scale suite.Scale, cores []int, w io.Writer) error {
	wl := srgbcmy.Default()
	if scale == suite.Small {
		wl = srgbcmy.Small()
	}
	in := srgbcmy.New(wl)
	run := func(rt *ompss.Runtime) { in.RunOmpSs(rt) }
	fmt.Fprintf(w, "rgbcmy barrier ablation (%d iterations of a short phase)\n", wl.Iters)
	return sweep(w, cores, "pthreads-block", func(m *pthread.Thread) { in.RunPthreads(m) }, []variant{
		{"ompss-poll", run, nil},
		{"ompss-block", run, []ompss.Option{ompss.Wait(ompss.Blocking)}},
	})
}

// localityAblation reruns ray-rot with the OmpSs locality scheduler on and
// off, quantifying the producer→consumer cache-warmth mechanism the paper
// credits for ray-rot's OmpSs lead.
func localityAblation(scale suite.Scale, cores []int, w io.Writer) error {
	wl := srayrot.Default()
	if scale == suite.Small {
		wl = srayrot.Small()
	}
	in := srayrot.New(wl)
	run := func(rt *ompss.Runtime) { in.RunOmpSs(rt) }
	fmt.Fprintf(w, "ray-rot locality ablation (%d render→rotate chains)\n", wl.Frames)
	return sweep(w, cores, "pthreads", func(m *pthread.Thread) { in.RunPthreads(m) }, []variant{
		{"ompss-locality", run, nil},
		{"ompss-fifo", run, []ompss.Option{ompss.WithTuning(ompss.Tuning{Locality: ompss.Off})}},
	})
}

// granularityAblation reruns h264dec's OmpSs variant across reconstruction
// task granularities (MB rows per task) at the given core counts — §4's
// granularity dilemma: grouping tasks cuts overhead but caps parallelism,
// which is what sinks OmpSs at 24–32 cores against line-decoding Pthreads.
func granularityAblation(scale suite.Scale, cores []int, w io.Writer) error {
	base := sh264dec.Default()
	if scale == suite.Small {
		base = sh264dec.Small()
	}
	var variants []variant
	for _, g := range []int{1, 2, 4, base.H / 16} {
		wl := base
		wl.GroupRows = g
		in := sh264dec.New(wl)
		variants = append(variants, variant{fmt.Sprintf("ompss-g%d", g), func(rt *ompss.Runtime) { in.RunOmpSs(rt) }, nil})
	}
	ref := sh264dec.New(base)
	fmt.Fprintf(w, "h264dec granularity ablation (GroupRows = MB rows per reconstruction task)\n")
	return sweep(w, cores, "pthreads", func(m *pthread.Thread) { ref.RunPthreads(m) }, variants)
}

// occupancyAblation quantifies §5's closing observation: a polling runtime
// keeps every enabled core loaded even when there is not enough work.
// It runs rgbcmy on 16 cores and reports utilization (useful work) versus
// occupancy (cores held) for both models and both OmpSs wait modes.
func occupancyAblation(scale suite.Scale, w io.Writer) error {
	wl := srgbcmy.Default()
	if scale == suite.Small {
		wl = srgbcmy.Small()
	}
	in := srgbcmy.New(wl)
	run := func(rt *ompss.Runtime) { in.RunOmpSs(rt) }
	mc := machine.Paper(16)
	type row struct {
		name string
		st   machine.Stats
	}
	st, err := pthread.RunSim(mc, 16, func(m *pthread.Thread) { in.RunPthreads(m) })
	if err != nil {
		return err
	}
	rows := []row{{"pthreads-blocking", st}}
	for _, v := range []variant{
		{"ompss-polling", run, nil},
		{"ompss-blocking", run, []ompss.Option{ompss.Wait(ompss.Blocking)}},
	} {
		st, err := ompss.RunSim(mc, v.run, v.opts...)
		if err != nil {
			return err
		}
		rows = append(rows, row{v.name, st})
	}

	fmt.Fprintf(w, "rgbcmy on 16 cores: core-time accounting\n")
	fmt.Fprintf(w, "%-20s%12s%14s%14s\n", "configuration", "makespan", "utilization", "occupancy")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s%12v%13.1f%%%13.1f%%\n",
			r.name, r.st.Makespan.Round(time.Microsecond),
			100*r.st.Utilization, 100*r.st.Occupancy)
	}
	return nil
}
