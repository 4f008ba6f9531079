package bench

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

// BarrierAblation reruns rgbcmy across core counts with three
// synchronization regimes: the blocking Pthreads barrier (the paper's
// baseline), the polling OmpSs taskwait (the paper's explanation for
// rgbcmy's OmpSs win), and OmpSs forced into blocking waits (isolating the
// wait-mode contribution from the rest of the task machinery).
func BarrierAblation(scale suite.Scale, cores []int, w io.Writer) error {
	wl := srgbcmy.Default()
	if scale == suite.Small {
		wl = srgbcmy.Small()
	}
	in := srgbcmy.New(wl)
	fmt.Fprintf(w, "rgbcmy barrier ablation (%d iterations of a short phase)\n", wl.Iters)
	fmt.Fprintf(w, "%-8s%16s%16s%16s\n", "cores", "pthreads-block", "ompss-poll", "ompss-block")
	for _, p := range cores {
		mc := machine.Paper(p)
		stP, err := pthread.RunSim(mc, p, func(m *pthread.Thread) { in.RunPthreads(m) })
		if err != nil {
			return err
		}
		stOP, err := ompss.RunSim(mc, func(rt *ompss.Runtime) { in.RunOmpSs(rt) })
		if err != nil {
			return err
		}
		stOB, err := ompss.RunSim(mc, func(rt *ompss.Runtime) { in.RunOmpSs(rt) },
			ompss.Wait(ompss.Blocking))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8d%16v%16v%16v\n", p, stP.Makespan, stOP.Makespan, stOB.Makespan)
	}
	return nil
}

// LocalityAblation reruns ray-rot with the OmpSs locality scheduler on and
// off, quantifying the producer→consumer cache-warmth mechanism the paper
// credits for ray-rot's OmpSs lead.
func LocalityAblation(scale suite.Scale, cores []int, w io.Writer) error {
	wl := srayrot.Default()
	if scale == suite.Small {
		wl = srayrot.Small()
	}
	in := srayrot.New(wl)
	fmt.Fprintf(w, "ray-rot locality ablation (%d render→rotate chains)\n", wl.Frames)
	fmt.Fprintf(w, "%-8s%16s%16s%16s\n", "cores", "pthreads", "ompss-locality", "ompss-fifo")
	for _, p := range cores {
		mc := machine.Paper(p)
		stP, err := pthread.RunSim(mc, p, func(m *pthread.Thread) { in.RunPthreads(m) })
		if err != nil {
			return err
		}
		stOn, err := ompss.RunSim(mc, func(rt *ompss.Runtime) { in.RunOmpSs(rt) })
		if err != nil {
			return err
		}
		stOff, err := ompss.RunSim(mc, func(rt *ompss.Runtime) { in.RunOmpSs(rt) },
			ompss.WithTuning(ompss.Tuning{Locality: ompss.Off}))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8d%16v%16v%16v\n", p, stP.Makespan, stOn.Makespan, stOff.Makespan)
	}
	return nil
}

// GranularityAblation reruns h264dec's OmpSs variant across reconstruction
// task granularities (MB rows per task) at the given core counts — §4's
// granularity dilemma: grouping tasks cuts overhead but caps parallelism,
// which is what sinks OmpSs at 24–32 cores against line-decoding Pthreads.
func GranularityAblation(scale suite.Scale, cores []int, w io.Writer) error {
	base := sh264dec.Default()
	if scale == suite.Small {
		base = sh264dec.Small()
	}
	groups := []int{1, 2, 4, base.H / 16}
	fmt.Fprintf(w, "h264dec granularity ablation (GroupRows = MB rows per reconstruction task)\n")
	fmt.Fprintf(w, "%-8s%16s", "cores", "pthreads")
	for _, g := range groups {
		fmt.Fprintf(w, "%16s", fmt.Sprintf("ompss-g%d", g))
	}
	fmt.Fprintln(w)
	for _, p := range cores {
		mc := machine.Paper(p)
		ref := sh264dec.New(base)
		stP, err := pthread.RunSim(mc, p, func(m *pthread.Thread) { ref.RunPthreads(m) })
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8d%16v", p, stP.Makespan)
		for _, g := range groups {
			wl := base
			wl.GroupRows = g
			in := sh264dec.New(wl)
			st, err := ompss.RunSim(mc, func(rt *ompss.Runtime) { in.RunOmpSs(rt) })
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%16v", st.Makespan)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// OccupancyAblation quantifies §5's closing observation: a polling runtime
// keeps every enabled core loaded even when there is not enough work.
// It runs rgbcmy on 16 cores and reports utilization (useful work) versus
// occupancy (cores held) for both models and both OmpSs wait modes.
func OccupancyAblation(scale suite.Scale, w io.Writer) error {
	wl := srgbcmy.Default()
	if scale == suite.Small {
		wl = srgbcmy.Small()
	}
	in := srgbcmy.New(wl)
	mc := machine.Paper(16)
	type row struct {
		name string
		st   machine.Stats
	}
	var rows []row
	stP, err := pthread.RunSim(mc, 16, func(m *pthread.Thread) { in.RunPthreads(m) })
	if err != nil {
		return err
	}
	rows = append(rows, row{"pthreads-blocking", stP})
	stOP, err := ompss.RunSim(mc, func(rt *ompss.Runtime) { in.RunOmpSs(rt) })
	if err != nil {
		return err
	}
	rows = append(rows, row{"ompss-polling", stOP})
	stOB, err := ompss.RunSim(mc, func(rt *ompss.Runtime) { in.RunOmpSs(rt) }, ompss.Wait(ompss.Blocking))
	if err != nil {
		return err
	}
	rows = append(rows, row{"ompss-blocking", stOB})

	fmt.Fprintf(w, "rgbcmy on 16 cores: core-time accounting\n")
	fmt.Fprintf(w, "%-20s%12s%14s%14s\n", "configuration", "makespan", "utilization", "occupancy")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s%12v%13.1f%%%13.1f%%\n",
			r.name, r.st.Makespan.Round(time.Microsecond),
			100*r.st.Utilization, 100*r.st.Occupancy)
	}
	return nil
}
