package ompss

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"ompssgo/internal/obs"
	"ompssgo/machine"
)

// simProgram spawns a fan of independent tasks followed by a reduction
// chain; used by several tests below.
func simProgram(nTasks int, cost time.Duration, out *[]int) func(*Runtime) {
	return func(rt *Runtime) {
		res := make([]int, nTasks)
		for i := 0; i < nTasks; i++ {
			i := i
			rt.Task(func(*TC) { res[i] = i * i }, OutSized(&res[i], 8), Cost(cost))
		}
		rt.Taskwait()
		*out = res
	}
}

func TestSimComputesRealResults(t *testing.T) {
	var res []int
	st, err := RunSim(machine.Paper(8), simProgram(32, 100*time.Microsecond, &res))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res {
		if v != i*i {
			t.Fatalf("res[%d] = %d, want %d", i, v, i*i)
		}
	}
	if st.Tasks != 32 {
		t.Fatalf("tasks = %d, want 32", st.Tasks)
	}
	if st.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
}

func TestSimMatchesNativeResults(t *testing.T) {
	program := func(rt *Runtime) *int {
		x, y, z := new(int), new(int), new(int)
		rt.Task(func(*TC) { *x = 5 }, Out(x), Cost(time.Microsecond))
		rt.Task(func(*TC) { *y = *x * 3 }, In(x), Out(y), Cost(time.Microsecond))
		rt.Task(func(*TC) { *z = *y + *x }, In(x), In(y), Out(z), Cost(time.Microsecond))
		rt.Taskwait()
		return z
	}
	var simZ int
	if _, err := RunSim(machine.Paper(4), func(rt *Runtime) { simZ = *program(rt) }); err != nil {
		t.Fatal(err)
	}
	rt := New(Workers(2))
	nativeZ := *program(rt)
	rt.Shutdown()
	if simZ != nativeZ || simZ != 20 {
		t.Fatalf("sim=%d native=%d, want 20", simZ, nativeZ)
	}
}

func TestSimDeterministicReplay(t *testing.T) {
	run := func() machine.Stats {
		var res []int
		st, err := RunSim(machine.Paper(16), simProgram(64, 50*time.Microsecond, &res))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.Events != b.Events {
		t.Fatalf("sim replay diverged: %+v vs %+v", a, b)
	}
}

func TestSimParallelSpeedup(t *testing.T) {
	measure := func(cores int) time.Duration {
		var res []int
		st, err := RunSim(machine.Paper(cores), simProgram(64, 500*time.Microsecond, &res))
		if err != nil {
			t.Fatal(err)
		}
		return st.Makespan
	}
	t1, t8 := measure(1), measure(8)
	speedup := float64(t1) / float64(t8)
	if speedup < 4 {
		t.Fatalf("8-core speedup = %.2f (t1=%v t8=%v), want ≥ 4", speedup, t1, t8)
	}
	if speedup > 8.5 {
		t.Fatalf("8-core speedup = %.2f exceeds physical limit", speedup)
	}
}

func TestSimRegionsParallelize(t *testing.T) {
	// One handle per block on 8 cores should overlap; a single whole-array
	// handle would serialize the same tasks.
	blocks := func(disjoint bool) time.Duration {
		st, err := RunSim(machine.Paper(8), func(rt *Runtime) {
			data := make([]int, 8*1024)
			whole := rt.Register(&data[0])
			for b := 0; b < 8; b++ {
				h := whole
				if disjoint {
					h = rt.Register(&data[b*1024])
				}
				b := b
				rt.Task(func(*TC) { data[b*1024] = b }, Out(h), Cost(500*time.Microsecond))
			}
			rt.Taskwait()
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Makespan
	}
	par, serial := blocks(true), blocks(false)
	if float64(serial)/float64(par) < 4 {
		t.Fatalf("disjoint blocks should parallelize: %v vs %v", par, serial)
	}
}

func TestSimPollingBeatsBlockingForShortPhases(t *testing.T) {
	// The rgbcmy mechanism at the runtime level: many short taskwait-
	// separated phases. Polling waits avoid wake latencies.
	phases := func(mode WaitMode) time.Duration {
		st, err := RunSim(machine.Paper(16), func(rt *Runtime) {
			res := make([]int, 16)
			for it := 0; it < 20; it++ {
				for i := range res {
					i := i
					rt.Task(func(*TC) { res[i]++ }, InOut(&res[i]), Cost(30*time.Microsecond))
				}
				rt.Taskwait()
			}
		}, Wait(mode))
		if err != nil {
			t.Fatal(err)
		}
		return st.Makespan
	}
	poll, block := phases(Polling), phases(Blocking)
	if poll >= block {
		t.Fatalf("polling (%v) should beat blocking (%v) for short phases", poll, block)
	}
}

func TestSimLocalitySchedulingHelpsChains(t *testing.T) {
	// Producer→consumer chains over sizable data: with locality
	// scheduling the consumer runs on the producer's core and reads warm
	// data; without it, consumers land anywhere (cold/remote). The
	// per-chain costs are deliberately heterogeneous — with identical
	// costs the deterministic FIFO rotation happens to reunite every
	// consumer with its producer's core by accident of symmetry.
	chains := func(locality Setting) time.Duration {
		st, err := RunSim(machine.Config{Cores: 8, Sockets: 2}, func(rt *Runtime) {
			const n = 32
			bufs := make([][]byte, n)
			for i := range bufs {
				bufs[i] = make([]byte, 1<<20)
			}
			for i := 0; i < n; i++ {
				i := i
				key := &bufs[i][0]
				pc := time.Duration(100+17*(i%7)) * time.Microsecond
				rt.Task(func(*TC) {}, OutSized(key, 1<<20), Cost(pc), Label("produce"))
				rt.Task(func(*TC) {}, InSized(key, 1<<20), Cost(60*time.Microsecond), Label("consume"))
			}
			rt.Taskwait()
		}, WithTuning(Tuning{Locality: locality}))
		if err != nil {
			t.Fatal(err)
		}
		return st.Makespan
	}
	with, without := chains(On), chains(Off)
	if with >= without {
		t.Fatalf("locality on (%v) should beat off (%v) for producer-consumer chains", with, without)
	}
}

func TestSimPollingOccupancyExceedsUtilization(t *testing.T) {
	// Paper §5: a polling runtime keeps all cores loaded even when there
	// is not enough work. One long serial chain on a 16-core machine
	// leaves 15 workers spinning.
	st, err := RunSim(machine.Paper(16), func(rt *Runtime) {
		x := new(int)
		for i := 0; i < 20; i++ {
			rt.Task(func(*TC) { *x++ }, InOut(x), Cost(300*time.Microsecond))
		}
		rt.Taskwait()
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Occupancy <= 0.9 {
		t.Fatalf("polling occupancy = %.2f, want ≈1.0", st.Occupancy)
	}
	if st.Utilization >= 0.5 {
		t.Fatalf("utilization = %.2f for a serial chain on 16 cores, want small", st.Utilization)
	}
}

func TestSimBlockingFreesIdleCores(t *testing.T) {
	st, err := RunSim(machine.Paper(16), func(rt *Runtime) {
		x := new(int)
		for i := 0; i < 20; i++ {
			rt.Task(func(*TC) { *x++ }, InOut(x), Cost(300*time.Microsecond))
		}
		rt.Taskwait()
	}, Wait(Blocking))
	if err != nil {
		t.Fatal(err)
	}
	if st.Occupancy > 0.6 {
		t.Fatalf("blocking occupancy = %.2f, want low (cores released)", st.Occupancy)
	}
}

func TestSimTaskwaitOnPipeline(t *testing.T) {
	// The Listing-1 EOF idiom: taskwait on the read-stage context inside
	// the spawn loop.
	st, err := RunSim(machine.Paper(4), func(rt *Runtime) {
		rc := new(int) // read-stage context
		oc := new(int) // output-stage context
		const N = 3
		frames := make([]int, N)
		produced, consumed := 0, 0
		for k := 0; k < 10; k++ {
			slot := &frames[k%N]
			rt.Task(func(*TC) { produced++; *slot = produced },
				InOut(rc), OutSized(slot, 4096), Cost(50*time.Microsecond), Label("read"))
			rt.Task(func(*TC) { consumed += *slot },
				InOut(oc), In(slot), Cost(80*time.Microsecond), Label("output"))
			rt.Master().TaskwaitOn(rc)
			if produced != k+1 {
				t.Errorf("iteration %d: taskwait on(rc) returned with produced=%d", k, produced)
			}
		}
		rt.Taskwait()
		if consumed != 55 {
			t.Errorf("consumed = %d, want 55", consumed)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Tasks != 20 {
		t.Fatalf("tasks = %d, want 20", st.Tasks)
	}
}

// TestSimBlockingTaskwaitOnSingleWorker: with one worker the master is the
// only thread, so a Blocking TaskwaitOn that parked without helping would
// leave nobody to run the awaited writer (the simulator reports that as a
// deadlock). Waits are help-first in both modes, as natively.
func TestSimBlockingTaskwaitOnSingleWorker(t *testing.T) {
	x, ran := new(int), false
	st, err := RunSim(machine.Paper(1), func(rt *Runtime) {
		rt.Task(func(*TC) { *x = 42 }, Out(x), Cost(10*time.Microsecond))
		rt.Master().TaskwaitOn(x)
		ran = *x == 42
	}, Wait(Blocking))
	if err != nil {
		t.Fatal(err)
	}
	if !ran || st.Tasks != 1 {
		t.Fatalf("TaskwaitOn returned before its writer ran (x=%d, tasks=%d)", *x, st.Tasks)
	}
}

// TestSimCriticalSerializes runs 16 tasks of 200µs critical work on 8
// cores: under one name they serialize, and each under its own name they
// overlap, finishing in under a quarter of the one-name makespan — the
// locks are per name, not one global lock.
func TestSimCriticalSerializes(t *testing.T) {
	run := func(oneName bool) time.Duration {
		st, err := RunSim(machine.Paper(8), func(rt *Runtime) {
			counter := 0
			for i := 0; i < 16; i++ {
				name := "c"
				if !oneName {
					name = fmt.Sprint("c", i)
				}
				rt.Task(func(tc *TC) {
					tc.Critical(name, func() { counter++; tc.Compute(200 * time.Microsecond) })
				}, Cost(10*time.Microsecond))
			}
			rt.Taskwait()
			if counter != 16 {
				t.Errorf("counter = %d, want 16", counter)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Makespan
	}
	one, distinct := run(true), run(false)
	// 16 × 200µs of serialized critical work bounds the makespan below.
	if one < 3200*time.Microsecond {
		t.Fatalf("critical sections did not serialize: makespan %v", one)
	}
	if distinct*4 >= one {
		t.Fatalf("distinct names should not exclude each other: one name %v, distinct names %v", one, distinct)
	}
}

// TestCommutativeSimOverlapsDistinctKeys keeps the overlap check of the
// retired commutative clause on what its callers declare now, InOut: in
// the simulator, 8 tasks of 1ms on distinct keys run in parallel and on
// one key they serialize, so the one-key makespan is at least 4× the
// distinct-key one.
func TestCommutativeSimOverlapsDistinctKeys(t *testing.T) {
	run := func(sameKey bool) time.Duration {
		st, err := RunSim(machine.Paper(8), func(rt *Runtime) {
			keys := make([]int, 8)
			for i := range keys {
				k := &keys[0]
				if !sameKey {
					k = &keys[i]
				}
				rt.Task(func(tc *TC) { tc.Compute(time.Millisecond) },
					InOut(k), Cost(time.Microsecond))
			}
			rt.Taskwait()
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Makespan
	}
	same, distinct := run(true), run(false)
	if float64(same)/float64(distinct) < 4 {
		t.Fatalf("same-key tasks should serialize and distinct keys overlap: same=%v distinct=%v", same, distinct)
	}
}

func TestSimNestedTasks(t *testing.T) {
	_, err := RunSim(machine.Paper(4), func(rt *Runtime) {
		total := 0
		rt.Task(func(tc *TC) {
			sub := make([]int, 4)
			for i := range sub {
				i := i
				tc.Task(func(*TC) { sub[i] = i + 1 }, Out(&sub[i]), Cost(20*time.Microsecond))
			}
			tc.Taskwait()
			for _, v := range sub {
				total += v
			}
		}, Cost(10*time.Microsecond))
		rt.Taskwait()
		if total != 10 {
			t.Errorf("nested total = %d, want 10", total)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimWorkersFewerThanCores(t *testing.T) {
	var res []int
	st, err := RunSim(machine.Paper(8), simProgram(16, 100*time.Microsecond, &res), Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	if st.Tasks != 16 {
		t.Fatalf("tasks = %d", st.Tasks)
	}
	// Only 2 lanes work: utilization concentrated, makespan ≈ 8 tasks/lane.
	if st.Makespan < 700*time.Microsecond {
		t.Fatalf("2 workers cannot beat 8×100µs of work: %v", st.Makespan)
	}
}

func TestSimSingleCoreSerializesEverything(t *testing.T) {
	var res []int
	st, err := RunSim(machine.Paper(1), simProgram(10, 100*time.Microsecond, &res))
	if err != nil {
		t.Fatal(err)
	}
	if st.Makespan < 1000*time.Microsecond {
		t.Fatalf("1-core makespan %v below serial work bound 1ms", st.Makespan)
	}
	for i, v := range res {
		if v != i*i {
			t.Fatalf("res[%d]=%d", i, v)
		}
	}
}

func TestSimIfFalseChargedInline(t *testing.T) {
	st, err := RunSim(machine.Paper(4), func(rt *Runtime) {
		x := 0
		rt.Task(func(*TC) { x = 1 }, If(false), Cost(2*time.Millisecond))
		if x != 1 {
			t.Error("If(false) body did not run inline")
		}
		rt.Taskwait()
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Makespan < 2*time.Millisecond {
		t.Fatalf("inline task cost not charged: makespan %v", st.Makespan)
	}
	if st.Tasks != 0 {
		t.Fatalf("inline task counted as graph task: %d", st.Tasks)
	}
}

func TestSimTracer(t *testing.T) {
	rec := obs.NewRecorder()
	var res []int
	if _, err := RunSim(machine.Paper(4), simProgram(8, 50*time.Microsecond, &res), Observe(rec)); err != nil {
		t.Fatal(err)
	}
	a := obs.Analyze(rec.Snapshot())
	if a.Submitted != 8 {
		t.Fatalf("traced tasks = %d, want 8", a.Submitted)
	}
	if !a.Virtual || a.Span <= 0 {
		t.Fatal("trace span should use virtual time")
	}
	if a.MaxParallelism < 2 {
		t.Fatalf("independent tasks on 4 cores should overlap, MaxParallelism=%d", a.MaxParallelism)
	}
}

// TestSimNativeEquivalenceProperty is the dual-backend contract on random
// programs: the same dataflow program must compute identical results
// natively and on the simulated machine.
func TestSimNativeEquivalenceProperty(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		seed := int64(trial*7 + 1)
		rng := rand.New(rand.NewSource(seed))
		const nvars = 5
		type op struct{ dst, src, k int }
		ops := make([]op, rng.Intn(40)+10)
		for i := range ops {
			ops[i] = op{rng.Intn(nvars), rng.Intn(nvars), rng.Intn(5)}
		}
		program := func(rt *Runtime) [nvars]int {
			var vars [nvars]int
			for i := range vars {
				vars[i] = i + 1
			}
			for _, o := range ops {
				o := o
				rt.Task(func(*TC) { vars[o.dst] += vars[o.src]*o.k + 1 },
					In(&vars[o.src]), InOut(&vars[o.dst]), Cost(10*time.Microsecond))
			}
			rt.Taskwait()
			return vars
		}
		rt := New(Workers(3), Seed(seed))
		native := program(rt)
		rt.Shutdown()
		var sim [nvars]int
		if _, err := RunSim(machine.Paper(8), func(rt *Runtime) { sim = program(rt) }); err != nil {
			t.Fatal(err)
		}
		if native != sim {
			t.Fatalf("trial %d: native %v != sim %v", trial, native, sim)
		}
	}
}

// TestSimRayRotShapeRepeats runs a ray-rot-shaped program (a registered
// frame per render task, raw-key outputs for its rotates) three times with a
// differently sized heap padding allocated first, so every frame lands at a
// different address each run. Nothing the simulated schedule depends on may
// come from an address, so the three simulations must agree exactly:
// makespan, event count, and the lane every task started on.
func TestSimRayRotShapeRepeats(t *testing.T) {
	const frames, rots, px = 12, 4, 1 << 14
	program := func(rt *Runtime) {
		src := make([][]byte, frames)
		rot := make([][]byte, frames*rots)
		for f := range src {
			src[f] = make([]byte, px)
			frame := rt.Register(&src[f][0])
			rt.Task(func(*TC) { src[f][0] = byte(f) },
				OutSized(frame, px), Cost(300*time.Microsecond), Label("render"))
			for j := 0; j < rots; j++ {
				i := f*rots + j
				rot[i] = make([]byte, px)
				rt.Task(func(*TC) { rot[i][0] = src[f][0] },
					InSized(frame, px), OutSized(&rot[i][0], px),
					Cost(100*time.Microsecond), Label("rotate"))
			}
		}
		rt.Taskwait()
	}
	type lane struct {
		task   uint64
		worker int32
	}
	run := func(pad int) (machine.Stats, []lane) {
		padding := make([]byte, pad)
		rec := obs.NewRecorder()
		st, err := RunSim(machine.Paper(8), program, Observe(rec))
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(padding)
		var lanes []lane
		for _, e := range rec.Snapshot().Events {
			if e.Kind == obs.EvStart {
				lanes = append(lanes, lane{e.Task, e.Worker})
			}
		}
		return st, lanes
	}
	st0, lanes0 := run(1 << 10)
	for _, pad := range []int{37 << 10, 300 << 10} {
		st, lanes := run(pad)
		if st.Makespan != st0.Makespan || st.Events != st0.Events {
			t.Fatalf("padding %d B: makespan %v events %d, first run %v events %d",
				pad, st.Makespan, st.Events, st0.Makespan, st0.Events)
		}
		if !slices.Equal(lanes, lanes0) {
			t.Fatalf("padding %d B: tasks started on different lanes than in the first run", pad)
		}
	}
}

// TestTaskLoopSimParallelizes runs a loop of 32 independent 1 ms tasks on
// the simulated machine: 8 cores must finish it at least 5× faster than 1.
func TestTaskLoopSimParallelizes(t *testing.T) {
	measure := func(cores int) time.Duration {
		st, err := RunSim(machine.Paper(cores), func(rt *Runtime) {
			for i := 0; i < 32; i++ {
				rt.Master().Task(func(*TC) {}, Cost(time.Millisecond))
			}
			rt.Taskwait()
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Makespan
	}
	if sp := float64(measure(1)) / float64(measure(8)); sp < 5 {
		t.Fatalf("task loop speedup %.1f on 8 cores", sp)
	}
}
