package pthread

import (
	"time"

	"ompssgo/internal/vm"
	"ompssgo/machine"
)

// simEnv binds an API to a simulated machine.
type simEnv struct {
	v *vm.VM
}

// RunSim executes a Pthreads-style program on the simulated cc-NUMA machine.
// The program runs in the master virtual thread on core 0; threads spawned
// with Parallel are pinned to cores 0..n−1 (wrapping — and timesliced — when
// threads exceed cores, as on the paper's machine they never do). All
// synchronization costs come from the same machine cost model the ompss
// simulation backend uses, so cross-model comparisons are apples-to-apples.
func RunSim(mc machine.Config, threads int, program func(*Thread)) (machine.Stats, error) {
	if mc.Cores < 1 {
		mc.Cores = 1
	}
	if threads < 1 {
		threads = 1
	}
	v := vm.New(vm.Config{Cores: mc.Cores, Sockets: mc.Sockets})
	api := &API{threads: threads, sim: &simEnv{v: v}}
	v.Go("main", 0, func(vt *vm.Thread) {
		main := &Thread{api: api, id: -1, vt: vt}
		program(main)
	})
	st, err := v.Run()
	return machine.Stats{
		Makespan:    time.Duration(st.Time),
		Utilization: st.Utilization(),
		Occupancy:   st.Occupancy(),
		Events:      st.Events,
	}, err
}
