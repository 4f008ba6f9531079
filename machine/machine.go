// Package machine describes the simulated evaluation machine shared by the
// ompss and pthread packages' simulation backends.
//
// The paper evaluates on a 4-socket, 32-core cc-NUMA server. This repository
// reproduces that platform with a deterministic discrete-event simulator
// (internal/vm); package machine is the public face used to configure
// simulated runs and read back their results.
package machine

import "time"

// Config describes the simulated machine for a run.
type Config struct {
	// Cores is the number of virtual cores (default 1).
	Cores int
	// Sockets is the number of NUMA sockets; cores are split into
	// contiguous equal blocks (default 1). The paper's machine is
	// Cores=32, Sockets=4.
	Sockets int
}

// Paper returns the configuration of the paper's evaluation platform with
// the given core count enabled (the paper sweeps 1, 8, 16, 24, 32).
func Paper(cores int) Config {
	sockets := (cores + 7) / 8
	if sockets < 1 {
		sockets = 1
	}
	return Config{Cores: cores, Sockets: sockets}
}

// Stats reports the outcome of one simulated run.
type Stats struct {
	// Makespan is the virtual wall-clock time of the run.
	Makespan time.Duration
	// Utilization is the fraction of core-time spent on useful work.
	Utilization float64
	// Occupancy is the fraction of core-time during which cores were held
	// (useful work plus busy-waiting). Occupancy > Utilization quantifies
	// the paper's §5 remark about polling runtimes keeping cores loaded
	// even without work.
	Occupancy float64
	// Events is the number of discrete events processed (a determinism
	// fingerprint).
	Events uint64
	// Tasks is the number of tasks executed (0 for pthread runs).
	Tasks uint64
}
