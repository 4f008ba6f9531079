package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"ompssgo/internal/check"
	"ompssgo/internal/suite"
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
	"ompssgo/ompss"
	"ompssgo/pthread"
)

// seededApp prepares one of the paper's ten applications with the
// benchmark seed XOR-ed into the Workload.Seed the suite ships. suite.New
// takes no seed, so the sub-packages are called directly; the program
// under test still sees nothing but the generated inputs.
func seededApp(name string, scale suite.Scale, seed int64) (suite.Instance, error) {
	small := scale == suite.Small
	switch name {
	case "c-ray":
		w := scray.Default()
		if small {
			w = scray.Small()
		}
		w.Seed ^= seed
		return scray.New(w), nil
	case "rotate":
		w := srotate.Default()
		if small {
			w = srotate.Small()
		}
		w.Seed ^= seed
		return srotate.New(w), nil
	case "rgbcmy":
		w := srgbcmy.Default()
		if small {
			w = srgbcmy.Small()
		}
		w.Seed ^= seed
		return srgbcmy.New(w), nil
	case "md5":
		w := smd5.Default()
		if small {
			w = smd5.Small()
		}
		w.Seed ^= seed
		return smd5.New(w), nil
	case "kmeans":
		w := skmeans.Default()
		if small {
			w = skmeans.Small()
		}
		w.Seed ^= seed
		return skmeans.New(w), nil
	case "ray-rot":
		w := srayrot.Default()
		if small {
			w = srayrot.Small()
		}
		w.Seed ^= seed
		return srayrot.New(w), nil
	case "rot-cc":
		w := srotcc.Default()
		if small {
			w = srotcc.Small()
		}
		w.Seed ^= seed
		return srotcc.New(w), nil
	case "streamcluster":
		w := sstreamcluster.Default()
		if small {
			w = sstreamcluster.Small()
		}
		w.Seed ^= seed
		return sstreamcluster.New(w), nil
	case "bodytrack":
		w := sbodytrack.Default()
		if small {
			w = sbodytrack.Small()
		}
		w.Seed ^= seed
		return sbodytrack.New(w), nil
	case "h264dec":
		w := sh264dec.Default()
		if small {
			w = sh264dec.Small()
		}
		w.Seed ^= seed
		return sh264dec.New(w), nil
	}
	return nil, fmt.Errorf("unknown application %q", name)
}

// digest folds reference checksums (and any other generated schedule) into
// one printable fingerprint of a workload's inputs: equal seeds must give
// equal digests, different seeds different ones.
func digest(words ...uint64) string {
	h := sha256.New()
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// ---- the two fine-grain programs ----
//
// Both implement suite.Instance, so they are measured exactly like the
// paper's applications: a sequential loop, a manual-threading variant and
// a task variant over the same generated input, on the native runtime and
// on the simulator.

// spinIters is the task body: ~0.1 µs of arithmetic, nothing shared.
const spinIters = 200

// spinCost is what the simulator charges for one body.
const spinCost = 100 * time.Nanosecond

func spinWork(n int) int64 {
	var acc int64
	for i := 0; i < n; i++ {
		acc += int64(i ^ (i >> 3))
	}
	return acc
}

var spinSink atomic.Int64

// paddedCounter keeps each chain's counter on its own cache line, so the
// measurement is of the runtime and not of false sharing.
type paddedCounter struct {
	v int64
	_ [56]byte
}

// chainsProg is fine-chains: tasks spread over independent InOut chains.
// The seed decides the order in which every round of `chains` tasks
// visits the chains.
type chainsProg struct {
	chains, tasks int
	order         []int32 // task i increments counter order[i]

	phases
}

// phases is what the latest RunOmpSs of a fine-grain program took: the
// master's time inside the Task loop (from submitAt) and inside the
// Taskwait after the last submit.
type phases struct {
	submitAt          time.Time
	submitNS, drainNS int64
}

func (ph *phases) note(start, submitted time.Time) {
	ph.submitAt = start
	ph.submitNS = submitted.Sub(start).Nanoseconds()
	ph.drainNS = time.Since(submitted).Nanoseconds()
}

func newChainsProg(chains, tasks int, seed int64) *chainsProg {
	tasks -= tasks % chains
	rng := rand.New(rand.NewSource(seed))
	p := &chainsProg{chains: chains, tasks: tasks, order: make([]int32, 0, tasks)}
	for len(p.order) < tasks {
		for _, c := range rng.Perm(chains) {
			p.order = append(p.order, int32(c))
		}
	}
	return p
}

func (p *chainsProg) Name() string  { return "chains" }
func (p *chainsProg) Class() string { return "kernel" }

func (p *chainsProg) fold(counters []paddedCounter) uint64 {
	vals := make([]int, len(counters))
	for i := range counters {
		vals[i] = int(counters[i].v)
	}
	return check.Ints(vals)
}

func (p *chainsProg) RunSeq() uint64 {
	counters := make([]paddedCounter, p.chains)
	for _, c := range p.order {
		spinSink.Add(spinWork(spinIters) & 1)
		counters[c].v++
	}
	return p.fold(counters)
}

// RunPthreads gives every thread a static share of the chains; each walks
// the whole order and executes the tasks of its own chains in sequence.
func (p *chainsProg) RunPthreads(main *pthread.Thread) uint64 {
	counters := make([]paddedCounter, p.chains)
	main.Parallel(func(t *pthread.Thread) {
		n := int32(t.API().Threads())
		id := int32(t.ID())
		for _, c := range p.order {
			if c%n != id {
				continue
			}
			spinSink.Add(spinWork(spinIters) & 1)
			counters[c].v++
			t.Compute(spinCost)
		}
	})
	return p.fold(counters)
}

// RunOmpSs submits every task from the master through registered handles,
// then waits. One body closure per chain is built before the loop, so the
// allocations counted per task are the runtime's own.
func (p *chainsProg) RunOmpSs(rt ompss.API) uint64 {
	counters := make([]paddedCounter, p.chains)
	ds := make([]*ompss.Datum, p.chains)
	bodies := make([]func(*ompss.TC), p.chains)
	for i := range counters {
		c := &counters[i]
		ds[i] = rt.Register(c)
		bodies[i] = func(*ompss.TC) {
			spinSink.Add(spinWork(spinIters) & 1)
			c.v++ // safe: the InOut chain serializes tasks on this counter
		}
	}
	cost := ompss.Cost(spinCost)
	start := time.Now()
	for _, c := range p.order {
		rt.Task(bodies[c], ds[c].AsInOut(), cost)
	}
	submitted := time.Now()
	rt.Taskwait()
	p.note(start, submitted)
	return p.fold(counters)
}

// readersProg is fine-readers: every round, `readers` In tasks check the
// value the previous round's writer left and one Out task writes the next
// value, all on one renameable datum. The seed generates the values.
type readersProg struct {
	rounds, readers int
	vals            []int64 // vals[r] is what round r's writer stores; vals[0] is the initial value

	// The task bodies are built once, so the allocations counted per task
	// are the runtime's own; they reach the current run's datum through run.
	readBody, writeBody []func(*ompss.TC)
	run                 struct {
		d     *ompss.Datum
		wrong atomic.Int64
	}

	phases
}

type renameCell struct{ v int64 }

func newReadersProg(rounds, readers int, seed int64) *readersProg {
	rng := rand.New(rand.NewSource(seed))
	p := &readersProg{rounds: rounds, readers: readers, vals: make([]int64, rounds+1),
		readBody: make([]func(*ompss.TC), rounds+1), writeBody: make([]func(*ompss.TC), rounds+1)}
	for i := range p.vals {
		p.vals[i] = rng.Int63()
	}
	for r := 1; r <= rounds; r++ {
		before, after := p.vals[r-1], p.vals[r]
		p.readBody[r] = func(tc *ompss.TC) {
			spinSink.Add(spinWork(spinIters) & 1)
			if tc.Data(p.run.d).(*renameCell).v != before {
				p.run.wrong.Add(1)
			}
		}
		p.writeBody[r] = func(tc *ompss.TC) {
			spinSink.Add(spinWork(spinIters) & 1)
			tc.Data(p.run.d).(*renameCell).v = after
		}
	}
	return p
}

func (p *readersProg) Name() string  { return "readers" }
func (p *readersProg) Class() string { return "kernel" }

// result folds the final cell value with the number of readers that saw a
// wrong value, so a stale read changes the checksum.
func (p *readersProg) result(final, wrong int64) uint64 {
	return check.Ints([]int{int(final), int(wrong)})
}

func (p *readersProg) RunSeq() uint64 {
	cell := renameCell{v: p.vals[0]}
	var wrong int64
	for r := 1; r <= p.rounds; r++ {
		for i := 0; i < p.readers; i++ {
			spinSink.Add(spinWork(spinIters) & 1)
			if cell.v != p.vals[r-1] {
				wrong++
			}
		}
		spinSink.Add(spinWork(spinIters) & 1)
		cell.v = p.vals[r]
	}
	return p.result(cell.v, wrong)
}

// RunPthreads splits each round's readers over the threads, with a barrier
// before and after the single writer.
func (p *readersProg) RunPthreads(main *pthread.Thread) uint64 {
	cell := renameCell{v: p.vals[0]}
	var wrong atomic.Int64
	n := main.API().Threads()
	bar := main.API().NewBarrier(n)
	main.Parallel(func(t *pthread.Thread) {
		for r := 1; r <= p.rounds; r++ {
			for i := t.ID(); i < p.readers; i += n {
				spinSink.Add(spinWork(spinIters) & 1)
				if cell.v != p.vals[r-1] {
					wrong.Add(1)
				}
				t.Compute(spinCost)
			}
			t.Barrier(bar)
			if t.ID() == 0 {
				spinSink.Add(spinWork(spinIters) & 1)
				cell.v = p.vals[r]
				t.Compute(spinCost)
			}
			t.Barrier(bar)
		}
	})
	return p.result(cell.v, wrong.Load())
}

// RunOmpSs needs a runtime with renaming on (see readersOpts): a writer
// whose only obstacles are the round's readers gets a fresh instance
// instead of WAR edges. Bodies reach the datum through TC.Data; the
// canonical cell is read after the drain. One run at a time.
func (p *readersProg) RunOmpSs(rt ompss.API) uint64 {
	cell := &renameCell{v: p.vals[0]}
	p.run.d = rt.Register(cell).EnableRenaming(nil,
		func() any { return new(renameCell) },
		func(dst, src any) { dst.(*renameCell).v = src.(*renameCell).v })
	p.run.wrong.Store(0)
	in, out, cost := p.run.d.AsIn(), p.run.d.AsOut(), ompss.Cost(spinCost)
	start := time.Now()
	for r := 1; r <= p.rounds; r++ {
		for i := 0; i < p.readers; i++ {
			rt.Task(p.readBody[r], in, cost)
		}
		rt.Task(p.writeBody[r], out, cost)
	}
	submitted := time.Now()
	rt.Taskwait()
	p.note(start, submitted)
	return p.result(cell.v, p.run.wrong.Load())
}

// readersOpts fixes the runtime fine-readers runs on, native or simulated.
func readersOpts() []ompss.Option {
	return []ompss.Option{ompss.WithTuning(ompss.Tuning{Renaming: ompss.On})}
}
