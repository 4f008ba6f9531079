// Package pthread is the manual-threading substrate the paper compares OmpSs
// against: threads, mutexes, blocking barriers, and atomic progress counters
// (the line-decoding sync of the optimized Pthreads H.264 decoder, paper §4)
// — the primitives the suite's Pthreads variants use.
//
// Like package ompss, it has two backends sharing one API:
//
//   - Native executes threads as goroutines with sync/atomic primitives.
//   - RunSim executes the same program on the simulated cc-NUMA machine
//     (package machine), with blocking primitives paying OS wake latencies
//     and spinning primitives holding their cores — exactly the distinction
//     the paper's rgbcmy analysis hinges on.
//
// Programs are written against *Thread: the main program receives the master
// thread, spawns workers with Parallel (SPMD, join-all) or Spawn/Join
// (pipelines), and synchronizes through the primitive methods. Compute and
// Touch are simulation cost annotations (no-ops natively, where the real
// work is the cost).
package pthread

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ompssgo/internal/vm"
)

// API is a Pthreads-style threading environment. Create with Native or
// receive one via RunSim.
type API struct {
	threads int
	sim     *simEnv // nil for native
	nextID  int64   // spawn counter (core assignment + thread IDs)
}

// Native creates a goroutine-backed environment whose Parallel launches
// `threads` threads.
func Native(threads int) *API {
	if threads < 1 {
		threads = 1
	}
	return &API{threads: threads}
}

// Threads returns the SPMD width used by Parallel.
func (a *API) Threads() int { return a.threads }

// Main returns the master thread bound to the calling goroutine (native
// environments only; RunSim provides the master thread itself).
func (a *API) Main() *Thread {
	return &Thread{api: a, id: -1}
}

// Thread is one thread of execution. All methods must be called by the
// thread itself (as with a pthread_t owned by its function).
type Thread struct {
	api *API
	id  int

	// native join support
	done chan struct{}

	// sim state
	vt       *vm.Thread
	finished bool
	joiners  []*vm.Thread
}

// ID returns the thread's index: 0..Threads()-1 inside Parallel, a unique
// counter for Spawn, −1 for the master.
func (t *Thread) ID() int { return t.id }

// API returns the owning environment.
func (t *Thread) API() *API { return t.api }

// Parallel launches Threads() threads running body (with IDs 0..n−1) and
// joins them all — the create/join SPMD skeleton of the paper's Pthreads
// benchmark variants.
func (t *Thread) Parallel(body func(*Thread)) {
	n := t.api.threads
	ths := make([]*Thread, n)
	for i := 0; i < n; i++ {
		ths[i] = t.spawn("par", i, i, body)
	}
	for _, th := range ths {
		t.Join(th)
	}
}

// Spawn starts one named thread (pipeline style). Pair with Join.
func (t *Thread) Spawn(name string, body func(*Thread)) *Thread {
	id := int(atomic.AddInt64(&t.api.nextID, 1)) - 1
	return t.spawn(name, id, id, body)
}

func (t *Thread) spawn(name string, id, pin int, body func(*Thread)) *Thread {
	th := &Thread{api: t.api, id: id}
	if t.api.sim == nil {
		th.done = make(chan struct{})
		go func() {
			body(th)
			close(th.done)
		}()
		return th
	}
	env := t.api.sim
	core := pin % env.v.Cores()
	t.vt.Go(name, core, func(vt *vm.Thread) {
		th.vt = vt
		body(th)
		th.finished = true
		for _, j := range th.joiners {
			env.v.WakeAt(j, env.v.Now()+env.v.Cost().CondWake)
		}
		th.joiners = nil
	})
	return th
}

// Join blocks until o finishes (pthread_join).
func (t *Thread) Join(o *Thread) {
	if t.api.sim == nil {
		<-o.done
		return
	}
	for !o.finished {
		o.joiners = append(o.joiners, t.vt)
		t.vt.Block("join")
	}
}

// Compute charges d of work to the thread on the simulated machine; a no-op
// natively (the body's real work is the cost).
func (t *Thread) Compute(d time.Duration) {
	if t.vt != nil && d > 0 {
		t.vt.Compute(vm.Time(d))
	}
}

// Touch charges the simulated memory-system cost of streaming `bytes` of the
// datum identified by key (cache warmth / NUMA placement dependent); a no-op
// natively.
func (t *Thread) Touch(key any, bytes int64, write bool) {
	if t.vt != nil {
		t.vt.Compute(t.vt.TouchCost(key, bytes, write))
	}
}

// Mutex is a blocking lock. Create with API.NewMutex.
type Mutex struct {
	n sync.Mutex
	s *vm.Mutex
}

// NewMutex creates a mutex for this environment.
func (a *API) NewMutex() *Mutex {
	m := &Mutex{}
	if a.sim != nil {
		m.s = &vm.Mutex{}
	}
	return m
}

// Lock acquires m.
func (t *Thread) Lock(m *Mutex) {
	if t.vt != nil {
		t.vt.Lock(m.s)
		return
	}
	m.n.Lock()
}

// Unlock releases m.
func (t *Thread) Unlock(m *Mutex) {
	if t.vt != nil {
		t.vt.Unlock(m.s)
		return
	}
	m.n.Unlock()
}

// Barrier is a blocking thread barrier (pthread_barrier_t): waiters sleep
// and pay a wake latency on release.
type Barrier struct {
	// native: generation barrier on a condvar
	mu      sync.Mutex
	cv      *sync.Cond
	n       int
	arrived int
	gen     uint64

	s *vm.Barrier
}

// NewBarrier creates a barrier for n participants.
func (a *API) NewBarrier(n int) *Barrier {
	b := &Barrier{n: n}
	if a.sim != nil {
		b.s = &vm.Barrier{N: n}
	} else {
		b.cv = sync.NewCond(&b.mu)
	}
	return b
}

// Barrier waits at b; returns true on the last arriver (the serial thread).
func (t *Thread) Barrier(b *Barrier) bool {
	if t.vt != nil {
		return t.vt.BarrierWait(b.s)
	}
	b.mu.Lock()
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		b.cv.Broadcast()
		b.mu.Unlock()
		return true
	}
	for gen == b.gen {
		b.cv.Wait()
	}
	b.mu.Unlock()
	return false
}

// SpinVar is an atomic progress counter with busy-waiting observers — the
// per-line decoded-macroblock counters of wavefront H.264 decoding.
type SpinVar struct {
	n atomic.Int64
	s *vm.SpinVar
}

// NewSpinVar creates a progress counter starting at 0.
func (a *API) NewSpinVar() *SpinVar {
	v := &SpinVar{}
	if a.sim != nil {
		v.s = &vm.SpinVar{}
	}
	return v
}

// Store publishes a new value.
func (t *Thread) Store(v *SpinVar, x int64) {
	if t.vt != nil {
		t.vt.SpinStore(v.s, x)
		return
	}
	v.n.Store(x)
}

// Add atomically adds delta and returns the new value.
func (t *Thread) Add(v *SpinVar, delta int64) int64 {
	if t.vt != nil {
		return t.vt.SpinAdd(v.s, delta)
	}
	return v.n.Add(delta)
}

// Load reads the current value.
func (t *Thread) Load(v *SpinVar) int64 {
	if t.vt != nil {
		return t.vt.SpinLoad(v.s)
	}
	return v.n.Load()
}

// WaitGE busy-waits until v reaches at least x.
func (t *Thread) WaitGE(v *SpinVar, x int64) {
	if t.vt != nil {
		t.vt.SpinWaitGE(v.s, x)
		return
	}
	for v.n.Load() < x {
		runtime.Gosched()
	}
}
