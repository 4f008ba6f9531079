package main

// Example runs the quickstart and pins its output: the native lines follow
// from the clauses, and the simulated lines are virtual time.
func Example() {
	main()
	// Output:
	// native: y = 42 (consume err = <nil>)
	// native: barrier err = no input frame
	// native: bad.Err = no input frame; dep skipped = true
	// sim  1 cores: makespan   32.106 ms, utilization 100.0%, 64 tasks
	// sim  8 cores: makespan    4.089 ms, utilization 98.2%, 64 tasks
	// sim 32 cores: makespan    1.128 ms, utilization 89.2%, 64 tasks
}
