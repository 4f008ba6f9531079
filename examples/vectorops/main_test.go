package main

// Example runs the pipeline and pins its output; main exits 1, failing the
// test, when the result differs from the sequential recomputation. The
// simulated line is virtual time.
func Example() {
	main()
	// Output:
	// pipeline over 16384 elements: 65 tasks
	// histogram total = 16384 (want 16384), data[last] = 1098.0 (want 1098.0)
	// sim 16 cores: 234.422µs makespan, 87% utilization
}
