// Package ompssgo is a from-scratch Go reproduction of "Programming
// Parallel Embedded and Consumer Applications in OpenMP Superscalar"
// (Andersch, Chi & Juurlink, PPoPP 2012): the OmpSs task-dataflow
// programming model (package ompss), the Pthreads baseline it is evaluated
// against (package pthread), the simulated 4-socket cc-NUMA evaluation
// machine (package machine over internal/vm), the paper's 10-benchmark
// embedded/consumer suite (internal/suite), and the harness that
// regenerates Table 1 and the §4/§5 mechanism analyses on that machine
// (internal/bench, cmd/ompss-bench). Wall-clock measurement of the native,
// service and distributed runtimes is the nested benchmark module's job
// (benchmark/, declared by BENCHMARK.json).
//
// See README.md for a tour and quickstart, DESIGN.md for the system
// inventory (including the first-class handle API: registered *Datum
// dependence keys, fire-and-forget Task and *Handle futures from Go,
// context-aware waits, and dependence renaming — per-datum version chains
// that eliminate WAR/WAW stalls, ompss.Tuning.Renaming), and EXPERIMENTS.md
// for measured-versus-published results. The root package exists to carry
// the repository-level benchmark suite (bench_test.go); the library entry
// points are packages ompss, pthread, and machine.
package ompssgo
