// Package suite assembles the paper's 10-benchmark evaluation suite. Every
// benchmark exposes the same three variants — sequential, Pthreads, OmpSs —
// which compute bit-identical results over identical seeded inputs, exactly
// as the paper's methodology requires ("for comparability the Pthreads and
// OmpSs variants exploit the same parallelism").
package suite

import (
	"fmt"

	"ompssgo/ompss"
	"ompssgo/pthread"

	sbodytrack "ompssgo/internal/suite/bodytrack"
	scray "ompssgo/internal/suite/cray"
	sh264dec "ompssgo/internal/suite/h264dec"
	skmeans "ompssgo/internal/suite/kmeans"
	smd5 "ompssgo/internal/suite/md5"
	srayrot "ompssgo/internal/suite/rayrot"
	srgbcmy "ompssgo/internal/suite/rgbcmy"
	srotate "ompssgo/internal/suite/rotate"
	srotcc "ompssgo/internal/suite/rotcc"
	sstreamcluster "ompssgo/internal/suite/streamcluster"
)

// Instance is one prepared benchmark: its inputs and three runnable
// variants returning a result checksum. An instance runs one variant at a
// time: the OmpSs variants of rotate, rgbcmy and h264dec keep their working
// buffers on the instance and reuse them across runs, resetting them at the
// start of each to the state a fresh allocation has, so a task that did not
// run leaves zeros behind, never an earlier run's answer.
type Instance interface {
	// Name is the Table 1 row label.
	Name() string
	// RunSeq runs the sequential reference.
	RunSeq() uint64
	// RunPthreads runs the manual-threading variant on the given main
	// thread (native or simulated).
	RunPthreads(*pthread.Thread) uint64
	// RunOmpSs runs the task-dataflow variant on the given runtime
	// surface (native or simulated). Taking the ompss.API interface — not
	// *ompss.Runtime — lets one kernel run against a whole runtime or a
	// request-scoped *ompss.Session unchanged; cmd/ompss-serve executes
	// each HTTP request's kernel inside its own session this way.
	RunOmpSs(ompss.API) uint64
}

// Scale selects workload sizing.
type Scale int

const (
	// Small sizes workloads for fast tests.
	Small Scale = iota
	// Default sizes workloads for the Table 1 harness.
	Default
)

// Names lists the suite in the paper's Table 1 order.
func Names() []string {
	return []string{"c-ray", "rotate", "rgbcmy", "md5", "kmeans",
		"ray-rot", "rot-cc", "streamcluster", "bodytrack", "h264dec"}
}

// New prepares the named benchmark at the given scale.
func New(name string, s Scale) (Instance, error) {
	small := s == Small
	switch name {
	case "c-ray":
		if small {
			return scray.New(scray.Small()), nil
		}
		return scray.New(scray.Default()), nil
	case "rotate":
		if small {
			return srotate.New(srotate.Small()), nil
		}
		return srotate.New(srotate.Default()), nil
	case "rgbcmy":
		if small {
			return srgbcmy.New(srgbcmy.Small()), nil
		}
		return srgbcmy.New(srgbcmy.Default()), nil
	case "md5":
		if small {
			return smd5.New(smd5.Small()), nil
		}
		return smd5.New(smd5.Default()), nil
	case "kmeans":
		if small {
			return skmeans.New(skmeans.Small()), nil
		}
		return skmeans.New(skmeans.Default()), nil
	case "ray-rot":
		if small {
			return srayrot.New(srayrot.Small()), nil
		}
		return srayrot.New(srayrot.Default()), nil
	case "rot-cc":
		if small {
			return srotcc.New(srotcc.Small()), nil
		}
		return srotcc.New(srotcc.Default()), nil
	case "streamcluster":
		if small {
			return sstreamcluster.New(sstreamcluster.Small()), nil
		}
		return sstreamcluster.New(sstreamcluster.Default()), nil
	case "bodytrack":
		if small {
			return sbodytrack.New(sbodytrack.Small()), nil
		}
		return sbodytrack.New(sbodytrack.Default()), nil
	case "h264dec":
		if small {
			return sh264dec.New(sh264dec.Small()), nil
		}
		return sh264dec.New(sh264dec.Default()), nil
	}
	return nil, fmt.Errorf("suite: unknown benchmark %q", name)
}
