package vm_test

// Event-stream equivalence: the dispatch path of internal/vm may change how an
// event is executed on the host, never which events exist. Every case below
// runs one simulation with the dispatch hook attached and compares the
// (time, seq, kind, thread) stream with the one recorded in testdata — taken
// at the closure-per-event engine this package had before its typed-event
// rewrite. Run with -update to re-record (only when a change is *meant* to
// alter the modelled machine).

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"ompssgo/internal/obs"
	"ompssgo/internal/suite"
	"ompssgo/internal/vm"
	"ompssgo/machine"
	"ompssgo/ompss"
	"ompssgo/pthread"
)

var update = flag.Bool("update", false, "re-record testdata/event_digests.json and event_streams.txt.gz from this engine")

const (
	digestFile = "testdata/event_digests.json"
	streamFile = "testdata/event_streams.txt.gz"
)

// ev is one dispatched event as the hook reports it.
type ev struct {
	at   vm.Time
	seq  uint64
	kind uint8
	tid  int
}

func (e ev) String() string {
	return fmt.Sprintf("t=%dns seq=%d %s thread=%d", int64(e.at), e.seq, vm.KindNames[e.kind], e.tid)
}

// outcome is what a case must reproduce bit for bit.
type outcome struct {
	Events      uint64  `json:"events"`
	Digest      string  `json:"digest"` // FNV-1a over the event stream
	MakespanNS  int64   `json:"makespan_ns"`
	Utilization float64 `json:"utilization"`
	Occupancy   float64 `json:"occupancy"`
	Err         string  `json:"err,omitempty"`
}

type golden struct {
	GOARCH string             `json:"goarch"` // MemCost is float64 math: FMA architectures may round differently
	Cases  map[string]outcome `json:"cases"`
}

type streamCase struct {
	name string
	run  func() (machine.Stats, error)
}

// record runs one case under the dispatch hook.
func record(c streamCase) ([]ev, outcome) {
	var evs []ev
	vm.OnNew(func(v *vm.VM) {
		v.SetDispatchHook(func(at vm.Time, seq uint64, kind uint8, tid int) {
			evs = append(evs, ev{at, seq, kind, tid})
		})
	})
	defer vm.OnNew(nil)
	st, err := c.run()
	h := fnv.New64a()
	for _, e := range evs {
		fmt.Fprintf(h, "%d %d %d %d\n", int64(e.at), e.seq, e.kind, e.tid)
	}
	o := outcome{
		Events:      st.Events,
		Digest:      fmt.Sprintf("%016x", h.Sum64()),
		MakespanNS:  int64(st.Makespan),
		Utilization: st.Utilization,
		Occupancy:   st.Occupancy,
	}
	if err != nil {
		o.Err = err.Error()
	}
	return evs, o
}

// diverge describes the first event at which got departs from want, with the
// two events before it; "" when the streams are equal.
func diverge(want, got []ev) string {
	n := min(len(want), len(got))
	i := 0
	for i < n && want[i] == got[i] {
		i++
	}
	if i == n && len(want) == len(got) {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "streams diverge at event #%d (of %d recorded, %d now)\n", i, len(want), len(got))
	for j := max(0, i-2); j < i; j++ {
		fmt.Fprintf(&b, "   #%d  %v\n", j, got[j])
	}
	at := func(s []ev) string {
		if i < len(s) {
			return s[i].String()
		}
		return "<end of stream>"
	}
	fmt.Fprintf(&b, "  want #%d  %s\n   got #%d  %s", i, at(want), i, at(got))
	return b.String()
}

func suiteCases(t testing.TB) []streamCase {
	var cs []streamCase
	for _, app := range []string{"c-ray", "h264dec"} {
		in, err := suite.New(app, suite.Small)
		if err != nil {
			t.Fatal(err)
		}
		omp := func(mc machine.Config, opts ...ompss.Option) func() (machine.Stats, error) {
			return func() (machine.Stats, error) {
				return ompss.RunSim(mc, func(rt *ompss.Runtime) { in.RunOmpSs(rt) }, opts...)
			}
		}
		pth := func(mc machine.Config, threads int) func() (machine.Stats, error) {
			return func() (machine.Stats, error) {
				return pthread.RunSim(mc, threads, func(m *pthread.Thread) { in.RunPthreads(m) })
			}
		}
		for _, p := range []int{1, 8, 32} {
			mc := machine.Paper(p)
			name := fmt.Sprintf("%s/p%d/", app, p)
			cs = append(cs,
				streamCase{name + "ompss-polling", omp(mc)},
				// On one core a Blocking master helps in taskwait-on
				// instead of parking, so h264dec/p1 records the polling
				// case's stream exactly (178 events, 2,131,115 ns).
				streamCase{name + "ompss-blocking", omp(mc, ompss.Wait(ompss.Blocking))},
				streamCase{name + "pthreads", pth(mc, p)},
			)
		}
		// More threads than cores: booted spinners, preempt, the quantum path.
		cs = append(cs,
			streamCase{app + "/oversubscribed/ompss-polling", omp(machine.Paper(2), ompss.Workers(5))},
			streamCase{app + "/oversubscribed/pthreads", pth(machine.Paper(2), 5)},
		)
	}
	cs = append(cs, streamCase{"vm/sync-mix", syncMix})
	return append(cs, lifecycleCases()...)
}

// lifecycleCases are small programs on 4 cores that reach the task-lifecycle
// paths c-ray and h264dec do not: admission backpressure and a session Close
// that drains by skipping, nested named locks, a cancellation drain,
// a chunked loop beside a renamed datum, nested spawn + taskwait, an
// inline task, and recorder emission (which must not move virtual time:
// observedTwin checks the pair).
func lifecycleCases() []streamCase {
	mc := machine.Paper(4)
	sim := func(prog func(*ompss.Runtime), opts ...ompss.Option) func() (machine.Stats, error) {
		return func() (machine.Stats, error) { return ompss.RunSim(mc, prog, opts...) }
	}
	// A recorder attaches once, so an observed case makes its own per run.
	observed := func(prog func(*ompss.Runtime), opts ...ompss.Option) func() (machine.Stats, error) {
		return func() (machine.Stats, error) {
			return sim(prog, append(opts, ompss.Observe(obs.NewRecorder()))...)()
		}
	}
	const us = time.Microsecond
	blocking := ompss.Wait(ompss.Blocking)

	admission := func(rt *ompss.Runtime) {
		s := rt.NewSession(ompss.MaxInFlight(4))
		var cells [4]int
		for i := 0; i < 32; i++ {
			c := &cells[i%len(cells)]
			s.Task(func(*ompss.TC) { *c++ }, ompss.InOut(c), ompss.Cost(time.Duration(20+i%5)*us))
		}
		s.Close() // the last tasks are still queued: Close skips them and drains
	}
	locks := func(rt *ompss.Runtime) {
		var sum, hits int
		for i := 0; i < 24; i++ {
			rt.Task(func(tc *ompss.TC) {
				tc.Critical("sum", func() {
					sum += i
					tc.Critical("hits", func() { hits++; tc.Compute(3 * us) })
				})
			}, ompss.Cost(time.Duration(10+i%4)*us))
		}
		rt.Taskwait()
	}
	nested := func(rt *ompss.Runtime) {
		var out [6]int
		for i := range out {
			rt.Task(func(tc *ompss.TC) {
				var parts [3]int
				for j := range parts {
					tc.Task(func(*ompss.TC) { parts[j] = i + j }, ompss.Out(&parts[j]), ompss.Cost(time.Duration(8+j)*us))
				}
				tc.Task(func(*ompss.TC) { parts[0]++ }, ompss.InOut(&parts[0]), ompss.If(false), ompss.Cost(2*us))
				tc.Taskwait()
				out[i] = parts[0] + parts[1] + parts[2]
			}, ompss.Out(&out[i]), ompss.Cost(5*us))
		}
		rt.Taskwait()
	}
	taskloopAuto := func(rt *ompss.Runtime) {
		type cell struct{ v int }
		d := rt.Register(&cell{}).EnableRenaming(nil,
			func() any { return new(cell) },
			func(dst, src any) { *dst.(*cell) = *src.(*cell) })
		for round := 0; round < 3; round++ {
			// 96 iterations in chunks of 6: the 96/(4·4 cores) the retired
			// TaskLoop(96, Auto) chose, so the recorded streams still hold.
			for lo := 0; lo < 96; lo += 6 {
				rt.Master().Task(func(tc *ompss.TC) { tc.Compute(6 * 2 * us) }, ompss.Label("loop"))
			}
			for w := 0; w < 12; w++ {
				for r := 0; r < 2; r++ {
					rt.Task(func(tc *ompss.TC) { _ = tc.Data(d).(*cell).v }, d.AsIn(), ompss.Cost(6*us), ompss.Label("read"))
				}
				rt.Task(func(tc *ompss.TC) { tc.Data(d).(*cell).v = w }, d.AsOut(), ompss.Cost(4*us), ompss.Label("write"))
			}
			rt.Taskwait()
		}
	}
	auto := ompss.WithTuning(ompss.Tuning{Grain: ompss.Auto, Renaming: ompss.On})

	return []streamCase{
		{"lifecycle/admission/polling", sim(admission)},
		{"lifecycle/admission/blocking", sim(admission, blocking)},
		{"lifecycle/locks/polling", sim(locks)},
		{"lifecycle/locks/blocking", sim(locks, blocking)},
		{"lifecycle/nested/polling", sim(nested)},
		{"lifecycle/nested/blocking", sim(nested, blocking)},
		{"lifecycle/nested/polling-observed", observed(nested)},
		{"lifecycle/taskloop-auto/polling", sim(taskloopAuto, auto)},
		{"lifecycle/taskloop-auto/polling-observed", observed(taskloopAuto, auto)},
		{"lifecycle/cancel/polling", func() (machine.Stats, error) {
			// The tenth task of a chain-free batch cancels the run from its own
			// body, so the moment of cancellation is a virtual instant: what had
			// not started by then is skipped (pollCtx, skip cascade).
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			return ompss.RunSimCtx(ctx, mc, func(rt *ompss.Runtime) {
				var cells [40]int
				for i := range cells {
					rt.Task(func(*ompss.TC) {
						if i == 9 {
							cancel()
						}
					}, ompss.Out(&cells[i]), ompss.Cost(15*us))
				}
				rt.Taskwait()
			})
		}},
	}
}

// observedTwin maps a case that runs under Observe to the same program without.
var observedTwin = map[string]string{
	"lifecycle/nested/polling-observed":        "lifecycle/nested/polling",
	"lifecycle/taskloop-auto/polling-observed": "lifecycle/taskloop-auto/polling",
}

// syncMix drives the primitives of sync.go directly, as sync_test.go does:
// SpinBarrier rounds, a SpinVar producer/consumer pair of which the producer
// shares a core with a barrier waiter, plus Mutex, Cond, Sleep, Yield and a
// nested spawn.
func syncMix() (machine.Stats, error) {
	const n = 4
	v := vm.New(vm.Config{Cores: n, Sockets: 2})
	sb := vm.SpinBarrier{N: n}
	var progress vm.SpinVar
	var mu vm.Mutex
	var cond vm.Cond
	turn := 0
	for i := 0; i < n; i++ {
		i := i
		v.Go(fmt.Sprintf("w%d", i), i, func(th *vm.Thread) {
			for round := 0; round < 4; round++ {
				th.Compute(vm.Time(i+1) * 10 * vm.Microsecond)
				th.Lock(&mu)
				turn++
				th.Compute(vm.Microsecond)
				th.Unlock(&mu)
				th.SpinBarrierWait(&sb)
			}
			th.Lock(&mu)
			for turn < 4*n+1 {
				th.CondWait(&cond, &mu)
			}
			th.Unlock(&mu)
		})
	}
	v.Go("producer", 0, func(th *vm.Thread) {
		for i := 1; i <= 6; i++ {
			th.Compute(1500 * vm.Microsecond) // longer than a quantum on a shared core
			th.SpinStore(&progress, int64(i))
			th.Yield()
		}
		th.Go("late", 3, func(c *vm.Thread) {
			c.Sleep(200 * vm.Microsecond)
			c.Lock(&mu)
			turn++
			c.CondBroadcast(&cond)
			c.Unlock(&mu)
		})
	})
	v.Go("consumer", 1, func(th *vm.Thread) {
		for i := 1; i <= 6; i++ {
			th.SpinWaitGE(&progress, int64(i))
			th.Compute(10 * vm.Microsecond)
		}
	})
	st, err := v.Run()
	return machine.Stats{
		Makespan:    time.Duration(st.Time),
		Utilization: st.Utilization(),
		Occupancy:   st.Occupancy(),
		Events:      st.Events,
	}, err
}

func TestEventStreamsMatchRecorded(t *testing.T) {
	cases := suiteCases(t)
	if *update {
		writeGolden(t, cases)
		return
	}
	var g golden
	raw, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	if g.GOARCH != runtime.GOARCH {
		t.Skipf("event digests were recorded on %s; re-record with -update to pin %s", g.GOARCH, runtime.GOARCH)
	}
	streams := readStreams(t)
	if len(g.Cases) != len(cases) {
		t.Errorf("%d recorded cases, %d defined", len(g.Cases), len(cases))
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, ok := g.Cases[c.name]
			if !ok {
				t.Fatalf("no recorded outcome (run with -update)")
			}
			evs, got := record(c)
			if got != want {
				t.Errorf("outcome\n got %+v\nwant %+v", got, want)
				if d := diverge(streams[c.name], evs); d != "" {
					t.Error(d)
				}
			}
			// Replay: the same configuration yields the same stream.
			again, _ := record(c)
			if d := diverge(evs, again); d != "" {
				t.Errorf("second run of the same cell: %s", d)
			}
		})
	}
}

func writeGolden(t *testing.T, cases []streamCase) {
	g := golden{GOARCH: runtime.GOARCH, Cases: map[string]outcome{}}
	f, err := os.Create(streamFile)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	for _, c := range cases {
		evs, o := record(c)
		g.Cases[c.name] = o
		fmt.Fprintf(zw, "# %s\n", c.name)
		var prev ev
		for _, e := range evs {
			fmt.Fprintf(zw, "%d %d %d %d\n", int64(e.at-prev.at), int64(e.seq)-int64(prev.seq), e.kind, e.tid)
			prev = e
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(digestFile, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("recorded %d cases", len(cases))
}

// readStreams loads the recorded streams: "# case", then one event a line with
// time and seq as differences from the line before (a fifth of the bytes).
func readStreams(t *testing.T) map[string][]ev {
	f, err := os.Open(streamFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]ev{}
	name := ""
	var e ev
	sc := bufio.NewScanner(zr)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			name, e = rest, ev{}
			continue
		}
		var dAt, dSeq int64
		if _, err := fmt.Sscan(line, &dAt, &dSeq, &e.kind, &e.tid); err != nil {
			t.Fatalf("%s: %q: %v", streamFile, line, err)
		}
		e.at += vm.Time(dAt)
		e.seq = uint64(int64(e.seq) + dSeq)
		out[name] = append(out[name], e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
