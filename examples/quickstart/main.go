// Quickstart: the OmpSs programming model in one file, through the
// first-class handle API.
//
// Run with: go run ./examples/quickstart
//
// It shows the core ideas of the model evaluated in the paper — declaring
// tasks with dataflow clauses instead of synchronizing by hand, and letting
// the runtime discover parallelism from the clauses — plus the Go-native
// surface this library adds on top: registered data handles (cheap,
// pre-resolved dependence keys), error-returning task futures (Go), and
// context-aware waits.
package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ompssgo/machine"
	"ompssgo/ompss"
)

func main() {
	// --- Native execution on goroutine workers. -------------------------
	rt := ompss.New(ompss.Workers(4))

	// Register the data the tasks will exchange. A *Datum is a dependence
	// key whose shard and record were resolved once, up front — the
	// library analogue of the compiler-resolved clause expressions in
	//
	//	#pragma omp task input(*x) output(*y)
	//
	// (Raw pointers still work anywhere a key is expected; handles are
	// the fast path, not a requirement.)
	x, y := new(int), new(int)
	dx, dy := rt.Register(x), rt.Register(y)

	// Tasks declare how they touch data; the runtime orders them. These
	// three form a chain through x. Task is fire-and-forget, as in OmpSs;
	// Go also returns a *Handle — a future with Done and Err.
	rt.Task(func(*ompss.TC) { *x = 40 }, ompss.Out(dx), ompss.Label("produce"))
	rt.Task(func(*ompss.TC) { *x += 2 }, ompss.InOut(dx), ompss.Label("update"))
	consume := rt.Go(func(*ompss.TC) error { *y = *x; return nil },
		ompss.In(dx), ompss.Out(dy), ompss.Label("consume"))

	// Taskwait is the task barrier: the calling thread helps execute ready
	// tasks while waiting, as the OmpSs master thread does.
	rt.Taskwait()
	fmt.Printf("native: y = %d (consume err = %v)\n", *y, consume.Err())

	// Error-returning tasks: Go makes the body's error the task outcome.
	// Under the default SkipDependents policy a failure skips the tasks
	// depending on it (each wrapping the root cause), and the first
	// failure of the batch surfaces at the context-aware barrier.
	bad := rt.Go(func(*ompss.TC) error { return fmt.Errorf("no input frame") },
		ompss.Out(dx), ompss.Label("bad-producer"))
	dep := rt.Go(func(*ompss.TC) error { *y = *x; return nil },
		ompss.In(dx), ompss.Label("stranded"))
	err := rt.TaskwaitCtx(context.Background())
	fmt.Printf("native: barrier err = %v\n", err)
	fmt.Printf("native: bad.Err = %v; dep skipped = %v\n",
		bad.Err(), errors.Is(dep.Err(), ompss.ErrSkipped))

	// taskwait on(...) waits only for the last writer of one datum — the
	// idiom Listing 1 uses to gate a pipelined loop on its read stage.
	done := rt.Register(new(int))
	rt.Task(func(*ompss.TC) { time.Sleep(time.Millisecond) }, ompss.Out(done))
	rt.TaskwaitOn(done)
	rt.Shutdown()

	// --- The same model on the simulated 32-core cc-NUMA machine. -------
	// Bodies still execute for real; Cost clauses drive virtual time.
	// RunSimCtx is the context-aware variant: cancelling the context
	// drains the simulated graph by skipping not-yet-started tasks.
	for _, cores := range []int{1, 8, 32} {
		st, err := ompss.RunSimCtx(context.Background(), machine.Paper(cores),
			func(rt *ompss.Runtime) {
				results := make([]int, 64)
				for i := range results {
					i := i
					rt.Task(func(*ompss.TC) { results[i] = i * i },
						ompss.OutSized(&results[i], 8),
						ompss.Cost(500*time.Microsecond))
				}
				rt.Taskwait()
			})
		if err != nil {
			panic(err)
		}
		fmt.Printf("sim %2d cores: makespan %8.3f ms, utilization %4.1f%%, %d tasks\n",
			cores, float64(st.Makespan)/1e6, st.Utilization*100, st.Tasks)
	}
}
