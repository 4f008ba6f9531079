package main

import (
	"fmt"
	"strconv"
	"time"

	"ompssgo/internal/obs"
	"ompssgo/internal/suite"
	"ompssgo/machine"
	"ompssgo/ompss"
	"ompssgo/pthread"
)

// simTable1 is the paper's Table 1 on the simulated machine: every pass
// simulates the ten applications at suite.Small on 1, 8, 16, 24 and 32
// cores, as Pthreads and as OmpSs — 100 simulations. Task bodies run for
// real, so host time is spent in internal/vm and in the core scheduling
// code the simulator shares with the native runtime; virtual time must
// come out the same on every pass.
type simTable1 struct {
	ps    []*part // one per app × core count
	cores []int   // cores[i] belongs to ps[i]

	first  []simCellStats // what the first pass after set-up measured
	nondet map[int]bool   // cells whose virtual time differed later
	obs    obsSum
	traced [][]int64
}

type simCellStats struct{ o, p machine.Stats }

func (s *simTable1) parts() []*part { return s.ps }
func (s *simTable1) teardown()      {}

func (s *simTable1) setup(e *env) error {
	s.ps, s.cores, s.first, s.nondet = nil, nil, nil, map[int]bool{}
	for _, name := range suite.Names() {
		in, err := seededApp(name, suite.Small, e.Seed)
		if err != nil {
			return err
		}
		want := in.RunSeq()
		for _, c := range simCores {
			s.ps = append(s.ps, &part{name: name + "/p" + strconv.Itoa(c), mult: 1, inst: in, want: want})
			s.cores = append(s.cores, c)
		}
	}
	return nil
}

func (s *simTable1) digest() string {
	var sums []uint64
	for _, p := range s.ps {
		sums = append(sums, p.want)
	}
	return digest(sums...)
}

func (s *simTable1) measure(e *env, d time.Duration, w *window, traced bool) {
	s.obs = obsSum{}
	s.traced = make([][]int64, len(s.ps))
	passLoop(d, w, func() {
		pass := w.spans.root("pass")
		cells := make([]simCellStats, len(s.ps))
		for i, p := range s.ps {
			cell := pass.child(p.name)
			mc := machine.Paper(s.cores[i])

			var got uint64
			sp := cell.child("ompss.RunSim")
			o, err := ompss.RunSim(mc, func(rt *ompss.Runtime) { got = p.inst.RunOmpSs(rt) })
			ns := sp.end().Nanoseconds()
			p.sut = append(p.sut, ns)
			w.check(err == nil && got == p.want, "%s/ompss: err %v checksum %#x, sequential reference %#x", p.name, err, got, p.want)
			w.tasks += o.Tasks
			w.taskSecs += float64(ns) / 1e9

			if traced {
				// Rings are allocated per lane at Attach: 33 default-sized
				// ones would cost more than a Small simulation itself.
				rec := obs.NewRecorder(obs.Capacity(1 << 12))
				sp = cell.child("ompss.RunSim")
				to, _ := ompss.RunSim(mc, func(rt *ompss.Runtime) { p.inst.RunOmpSs(rt) }, ompss.Observe(rec))
				s.traced[i] = append(s.traced[i], sp.end().Nanoseconds())
				s.obs.add(rec.Snapshot())
				if to.Makespan != o.Makespan {
					s.nondet[i] = true
				}
			}

			sp = cell.child("pthread.RunSim")
			pt, err := pthread.RunSim(mc, s.cores[i], func(m *pthread.Thread) { got = p.inst.RunPthreads(m) })
			p.pth = append(p.pth, sp.end().Nanoseconds())
			w.check(err == nil && got == p.want, "%s/pthreads: err %v checksum %#x, sequential reference %#x", p.name, err, got, p.want)

			// The sequential reference of a simulation is the same bodies
			// run once on the host, without a simulator around them.
			sp = cell.child("RunSeq")
			got = p.inst.RunSeq()
			p.seq = append(p.seq, sp.end().Nanoseconds())
			w.check(got == p.want, "%s/seq: checksum %#x, reference %#x", p.name, got, p.want)
			cell.end()
			cells[i] = simCellStats{o, pt}
		}
		pass.end()
		if s.first == nil {
			s.first = cells
			return
		}
		for i, c := range cells {
			if c.o.Makespan != s.first[i].o.Makespan || c.p.Makespan != s.first[i].p.Makespan {
				s.nondet[i] = true
			}
		}
	})
}

// virtual returns the 50 cells' virtual makespans: the Table 1 entries.
func (s *simTable1) virtual() (o, p []time.Duration, err error) {
	if s.first == nil {
		return nil, nil, fmt.Errorf("sim-table1: no pass has run")
	}
	for _, c := range s.first {
		o = append(o, c.o.Makespan)
		p = append(p, c.p.Makespan)
	}
	return o, p, nil
}

func (s *simTable1) layers(e *env, w *window, m map[string]float64) {
	var ompssNS, pthNS, tracedNS float64
	var events uint64
	var util, occ float64
	perCore := map[int][2][]time.Duration{}
	for i, p := range s.ps {
		ompssNS += medianInt(p.sut)
		pthNS += medianInt(p.pth)
		tracedNS += medianInt(s.traced[i])
		c := s.first[i]
		events += c.o.Events + c.p.Events
		pc := perCore[s.cores[i]]
		pc[0], pc[1] = append(pc[0], c.p.Makespan), append(pc[1], c.o.Makespan)
		perCore[s.cores[i]] = pc
		if s.cores[i] == 32 {
			util += c.o.Utilization / float64(len(suite.Names()))
			occ += c.o.Occupancy / float64(len(suite.Names()))
		}
	}
	m["vm.events_per_pass"] = float64(events)
	m["vm.events_per_s"] = ratio(float64(events), (ompssNS+pthNS)/1e9)
	m["vm.host_ns_per_event"] = ratio(ompssNS+pthNS, float64(events))
	m["sim.ompss_host_ms"] = ompssNS / 1e6
	m["sim.pthreads_host_ms"] = pthNS / 1e6
	for _, c := range simCores {
		m["sim.geomean_p"+strconv.Itoa(c)] = geomeanRatio(perCore[c][0], perCore[c][1])
	}
	m["sim.utilization_p32"] = util
	m["sim.occupancy_p32"] = occ
	m["sim.nondeterministic_cells"] = float64(len(s.nondet))
	s.obs.fill(m)
	m["obs.trace_overhead_pct"] = (ratio(tracedNS, ompssNS) - 1) * 100

	// The known soft spot: at Default scale ray-rot's virtual makespan on
	// 32 cores is not the same in every run. Recorded, not hidden.
	in, err := seededApp("ray-rot", e.scale(), e.Seed)
	if err != nil {
		w.fail("ray-rot probe: %v", err)
		return
	}
	lo, hi := time.Duration(0), time.Duration(0)
	for i := 0; i < 3; i++ {
		st, err := ompss.RunSim(machine.Paper(32), func(rt *ompss.Runtime) { in.RunOmpSs(rt) })
		if err != nil {
			w.fail("ray-rot probe: %v", err)
			return
		}
		if i == 0 || st.Makespan < lo {
			lo = st.Makespan
		}
		hi = max(hi, st.Makespan)
	}
	m["sim.default_rayrot_spread_pct"] = ratio(float64(hi-lo), float64(lo)) * 100
}
