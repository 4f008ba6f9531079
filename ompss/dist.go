package ompss

import (
	"ompssgo/internal/dist"
	"ompssgo/internal/obs"
)

// RunDist executes program on the distributed backend (internal/dist): a
// coordinator in this process drives the dependence tracker with renaming
// enabled, and `workers` freshly spawned worker processes (children of the
// current binary) execute the task bodies against migrated datum versions —
// same dataflow semantics as New and RunSim, shared-nothing execution.
//
// The program receives a *dist.RT, not a *Runtime: distributed task bodies
// are registered kernels addressed by name (dist.RegisterKernel) rather
// than closures, and datums are coordinator-owned byte buffers. main (and
// TestMain, for test binaries) must call dist.MaybeWorker first thing so
// spawned children divert into the worker loop.
func RunDist(workers int, program func(*dist.RT) error, opts ...DistOption) (dist.Stats, error) {
	return dist.Run(workers, program, opts...)
}

// DistOption configures RunDist.
type DistOption = dist.Option

// Worker rendezvous transports for DistTransport.
const (
	DistTransportUnix = dist.TransportUnix
	DistTransportTCP  = dist.TransportTCP
)

// DistTransport selects the worker rendezvous transport: Unix domain
// sockets (the default) or TCP loopback. Both run the same HMAC
// challenge/response handshake; unauthenticated peers are refused.
func DistTransport(name string) DistOption { return dist.Transport(name) }

// DistTraceSink receives the run's merged cross-process trace — the
// coordinator stream plus every worker incarnation's events, aligned onto
// one clock and labelled with per-(slot, generation) tracks — right
// before RunDist returns. It implies worker tracing.
func DistTraceSink(fn func(*obs.Trace)) DistOption { return dist.TraceSink(fn) }
