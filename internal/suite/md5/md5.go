// Package md5 is the md5 benchmark of the suite: hashing a set of
// independent buffers, one buffer per unit of parallelism (kernel class;
// paper Table 1 mean 1.06).
package md5

import (
	"ompssgo/internal/check"
	kern "ompssgo/internal/kernels/md5"
	"ompssgo/internal/media"
	"ompssgo/ompss"
	"ompssgo/pthread"
)

// Workload parameterizes one run.
type Workload struct {
	NBuf    int
	BufSize int
	Seed    int64
}

// Default is the harness workload.
func Default() Workload { return Workload{NBuf: 96, BufSize: 256 << 10, Seed: 6} }

// Small is the test workload.
func Small() Workload { return Workload{NBuf: 12, BufSize: 8 << 10, Seed: 6} }

// Instance is a prepared benchmark instance.
type Instance struct {
	W    Workload
	bufs [][]byte
}

// New generates the input buffers.
func New(w Workload) *Instance {
	return &Instance{W: w, bufs: media.Buffers(w.NBuf, w.BufSize, w.Seed)}
}

// Name returns the Table 1 row name.
func (in *Instance) Name() string { return "md5" }

func (in *Instance) fold(digests [][kern.Size]byte) uint64 {
	sums := make([]uint64, len(digests))
	for i := range digests {
		sums[i] = check.Bytes(digests[i][:])
	}
	return check.Combine(sums)
}

// RunSeq hashes all buffers in order.
func (in *Instance) RunSeq() uint64 {
	digests := make([][kern.Size]byte, len(in.bufs))
	for i, b := range in.bufs {
		digests[i] = kern.Sum(b)
	}
	return in.fold(digests)
}

// RunPthreads hashes with a static interleaved buffer partition.
func (in *Instance) RunPthreads(main *pthread.Thread) uint64 {
	digests := make([][kern.Size]byte, len(in.bufs))
	main.Parallel(func(t *pthread.Thread) {
		p := t.API().Threads()
		for i := t.ID(); i < len(in.bufs); i += p {
			digests[i] = kern.Sum(in.bufs[i])
			t.Compute(kern.BufferCost(len(in.bufs[i])))
			t.Touch(&in.bufs[i][0], int64(len(in.bufs[i])), false)
		}
	})
	return in.fold(digests)
}

// RunOmpSs hashes with one task per buffer, spawned on the master TC.
func (in *Instance) RunOmpSs(rt ompss.API) uint64 {
	digests := make([][kern.Size]byte, len(in.bufs))
	tc := rt.Master()
	for i := range in.bufs {
		tc.Task(func(*ompss.TC) { digests[i] = kern.Sum(in.bufs[i]) },
			ompss.InSized(&in.bufs[i][0], int64(len(in.bufs[i]))),
			ompss.OutSized(&digests[i], int64(kern.Size)),
			ompss.Cost(kern.BufferCost(len(in.bufs[i]))),
			ompss.Label("md5"))
	}
	tc.Taskwait()
	return in.fold(digests)
}

// LoopUnits returns the flat iteration-space size (buffer count).
func (in *Instance) LoopUnits() int { return in.W.NBuf }

// RunOmpSsLoop hashes as one TaskLoop over the buffer set; the chunk
// argument decides how many buffers one task hashes (ompss.Auto defers to
// the runtime). Simulated costs are charged per buffer through
// the task context.
func (in *Instance) RunOmpSsLoop(rt ompss.API, chunk int) uint64 {
	digests := make([][kern.Size]byte, len(in.bufs))
	rt.Master().TaskLoop(len(in.bufs), chunk, func(tc *ompss.TC, lo, hi int) {
		for i := lo; i < hi; i++ {
			digests[i] = kern.Sum(in.bufs[i])
			tc.Compute(kern.BufferCost(len(in.bufs[i])))
			tc.Touch(&in.bufs[i][0], int64(len(in.bufs[i])), false)
		}
	}, ompss.Label("md5"))
	rt.Taskwait()
	return in.fold(digests)
}
