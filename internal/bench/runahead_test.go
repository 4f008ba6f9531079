package bench

import (
	"fmt"
	"testing"
	"time"

	"ompssgo/internal/suite"
	"ompssgo/machine"
	"ompssgo/ompss"
)

// fineChains and fineReaders are the task shapes of the benchmark's two
// fine-grain workloads (benchmark/programs.go): ~0.1 µs tasks on independent
// InOut chains, and three readers beside each writer of one renamed datum.
func fineChains(rt *ompss.Runtime) {
	const chains, tasks = 8, 4000
	counters := make([]int64, chains)
	ds := make([]*ompss.Datum, chains)
	for i := range ds {
		ds[i] = rt.Register(&counters[i])
	}
	cost := ompss.Cost(100 * time.Nanosecond)
	for i := 0; i < tasks; i++ {
		c := i % chains
		rt.Task(func(*ompss.TC) { counters[c]++ }, ds[c].AsInOut(), cost)
	}
	rt.Taskwait()
}

func fineReaders(rt *ompss.Runtime) {
	const rounds, readers = 1000, 3
	type cell struct{ v int64 }
	d := rt.Register(&cell{}).EnableRenaming(nil,
		func() any { return new(cell) },
		func(dst, src any) { dst.(*cell).v = src.(*cell).v })
	cost := ompss.Cost(100 * time.Nanosecond)
	for r := 1; r <= rounds; r++ {
		for i := 0; i < readers; i++ {
			rt.Task(func(tc *ompss.TC) { _ = tc.Data(d).(*cell).v }, d.AsIn(), cost)
		}
		rt.Task(func(tc *ompss.TC) { tc.Data(d).(*cell).v = int64(r) }, d.AsOut(), cost)
	}
	rt.Taskwait()
}

// TestDefaultWindowLeavesSimulatedCellsAlone is the exact half of the
// run-ahead window's acceptance: on the simulated machine the default window
// (64 tasks per worker) must never bind where the benchmark reads virtual
// time, so a cell reports the same makespan and the same event count as with
// the window lifted. The last row keeps the comparison honest: a window of
// two tasks on the 8-core rgbcmy cell does move it, so the signature can see
// a window bind.
func TestDefaultWindowLeavesSimulatedCellsAlone(t *testing.T) {
	type cellRun struct {
		name    string
		cores   int
		program func(*ompss.Runtime)
		opts    []ompss.Option
	}
	var cells []cellRun
	for _, app := range []string{"rgbcmy", "h264dec"} {
		in, err := suite.New(app, suite.Small)
		if err != nil {
			t.Fatal(err)
		}
		for _, cores := range []int{1, 8, 32} {
			cells = append(cells, cellRun{app, cores, func(rt *ompss.Runtime) { in.RunOmpSs(rt) }, nil})
		}
	}
	renaming := ompss.WithTuning(ompss.Tuning{Renaming: ompss.On})
	cells = append(cells,
		cellRun{"fine-chains", 8, fineChains, nil},
		cellRun{"fine-readers", 8, fineReaders, []ompss.Option{renaming}})

	run := func(c cellRun, window int) machine.Stats {
		st, err := ompss.RunSim(machine.Paper(c.cores), c.program,
			append([]ompss.Option{ompss.MaxInFlight(window)}, c.opts...)...)
		if err != nil {
			t.Fatalf("%s/%d window=%d: %v", c.name, c.cores, window, err)
		}
		return st
	}
	sig := func(st machine.Stats) string {
		return fmt.Sprintf("makespan %v, %d events, %d tasks", st.Makespan, st.Events, st.Tasks)
	}
	for _, c := range cells {
		if def, lifted := sig(run(c, 0)), sig(run(c, -1)); def != lifted {
			t.Errorf("%s at %d cores: the default window binds: %s, unbounded %s", c.name, c.cores, def, lifted)
		}
	}
	eight := cells[1]
	if narrow, lifted := sig(run(eight, 2)), sig(run(eight, -1)); narrow == lifted {
		t.Errorf("%s at %d cores: a 2-task window left the cell untouched (%s): this test cannot see a window bind", eight.name, eight.cores, narrow)
	}
}
