package vm

// Seams for the external tests of this package (equiv_test.go, bench_test.go),
// which reach VMs that ompss.RunSim and pthread.RunSim create internally.

// KindNames labels the kinds a dispatch hook reports.
var KindNames = [...]string{evResume: "resume", evReady: "ready", evSpinWake: "spin-wake", evSpinPoll: "spin-poll"}

// OnNew installs f to see every VM that New creates (nil to remove).
func OnNew(f func(*VM)) { onNew = f }

// SetDispatchHook makes h see every event of vm as it is dispatched.
func (vm *VM) SetDispatchHook(h func(at Time, seq uint64, kind uint8, tid int)) { vm.hook = h }

// FinalStats returns the stats of a VM whose Run has returned.
func (vm *VM) FinalStats() Stats { return vm.stats() }
