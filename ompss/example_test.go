package ompss_test

import (
	"fmt"
	"time"

	"ompssgo/machine"
	"ompssgo/ompss"
)

// The paper's pragma form,
//
//	#pragma omp task input(*a) inout(*b) output(*c)
//	work(a, b, c);
//
// translates directly to clause values on Task.
func Example() {
	rt := ompss.New(ompss.Workers(2))
	defer rt.Shutdown()

	a, b, c := new(int), new(int), new(int)
	rt.Task(func(*ompss.TC) { *a = 2 }, ompss.Out(a))
	rt.Task(func(*ompss.TC) { *b = 3 }, ompss.Out(b))
	rt.Task(func(*ompss.TC) { *c = *a * *b }, ompss.In(a), ompss.In(b), ompss.Out(c))
	rt.Taskwait()
	fmt.Println(*c)
	// Output: 6
}

// TaskwaitOn waits only for the last writer of one datum — Listing 1's
// loop-gate idiom.
func ExampleTC_TaskwaitOn() {
	rt := ompss.New(ompss.Workers(2))
	defer rt.Shutdown()

	readCtx := new(int)
	frames := 0
	for k := 0; k < 3; k++ {
		rt.Task(func(*ompss.TC) { frames++ }, ompss.InOut(readCtx))
		rt.Master().TaskwaitOn(readCtx) // the read stage of iteration k has finished
	}
	fmt.Println(frames)
	// Output: 3
}

// RunSim executes the same program on the simulated 32-core cc-NUMA
// machine; results are identical, and virtual time reveals the scaling.
func ExampleRunSim() {
	st, err := ompss.RunSim(machine.Paper(32), func(rt *ompss.Runtime) {
		for i := 0; i < 64; i++ {
			rt.Task(func(*ompss.TC) {}, ompss.Cost(time.Millisecond))
		}
		rt.Taskwait()
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(st.Tasks, st.Makespan < 10*time.Millisecond)
	// Output: 64 true
}
