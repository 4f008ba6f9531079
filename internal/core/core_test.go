package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// miniExec drives Graph+Sched single-threaded, popping from pseudo-random
// workers, and returns the execution order. It is the smallest legal
// executor and mirrors what ompss's executors do under their locks.
type miniExec struct {
	g       *Graph
	s       *Sched
	rng     *rand.Rand
	order   []*Task
	workers int
}

func newMiniExec(workers int, locality bool, seed int64) *miniExec {
	return &miniExec{
		g:       NewGraph(),
		s:       NewSched(workers, Policy{Locality: locality}, seed),
		rng:     rand.New(rand.NewSource(seed)),
		workers: workers,
	}
}

func (m *miniExec) submit(t *Task) {
	if m.g.Submit(t) {
		m.s.PushSubmit(t)
	}
}

func (m *miniExec) runAll() {
	for m.g.Unfinished() > 0 {
		w := m.rng.Intn(m.workers)
		t := m.s.Pop(w)
		if t == nil {
			continue
		}
		m.g.MarkRunning(t, w)
		err := runBody(t)
		m.order = append(m.order, t)
		for _, r := range m.g.Finish(t, err) {
			m.s.PushReady(r, w)
		}
	}
}

// testBody is a task body kept in Owner, the slot the engine carries for
// whoever dispatches the task; it neither settles nor recycles anything.
type testBody func() error

func (testBody) Settle(error) {}
func (testBody) Recycle()     {}

// runBody plays the executor: it runs the body these tests keep in Owner.
func runBody(t *Task) error {
	if body, ok := t.Owner.(testBody); ok {
		return body()
	}
	return nil
}

func pos(order []*Task, t *Task) int {
	for i, o := range order {
		if o == t {
			return i
		}
	}
	return -1
}

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{In: "in", Out: "out", InOut: "inout", Mode(99): "?"}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
}

func TestIndependentTasksAllReady(t *testing.T) {
	m := newMiniExec(4, true, 1)
	var tasks []*Task
	for i := 0; i < 10; i++ {
		x := new(int)
		tk := &Task{Accesses: []Access{{Key: x, Mode: InOut}}}
		tasks = append(tasks, tk)
		if !m.g.Submit(tk) {
			t.Fatalf("task %d on private datum should be ready", i)
		}
		m.s.PushSubmit(tk)
	}
	m.runAll()
	if len(m.order) != 10 {
		t.Fatalf("executed %d, want 10", len(m.order))
	}
	for _, tk := range tasks {
		if !tk.Finished() {
			t.Fatal("unfinished task after runAll")
		}
	}
}

func TestRAWChainSerializes(t *testing.T) {
	m := newMiniExec(4, true, 2)
	x := new(int)
	var ts []*Task
	val := 0
	for i := 0; i < 8; i++ {
		i := i
		tk := &Task{
			Label:    fmt.Sprint(i),
			Accesses: []Access{{Key: x, Mode: InOut}},
			Owner: testBody(func() error {
				if val != i {
					t.Errorf("task %d saw val=%d", i, val)
				}
				val++
				return nil
			}),
		}
		ts = append(ts, tk)
		m.submit(tk)
	}
	m.runAll()
	for i := 1; i < len(ts); i++ {
		if pos(m.order, ts[i-1]) > pos(m.order, ts[i]) {
			t.Fatalf("chain order violated at %d", i)
		}
	}
}

func TestReadersShareAfterWriter(t *testing.T) {
	m := newMiniExec(4, true, 3)
	x := new(int)
	w := &Task{Accesses: []Access{{Key: x, Mode: Out}}}
	m.submit(w)
	var readers []*Task
	for i := 0; i < 4; i++ {
		r := &Task{Accesses: []Access{{Key: x, Mode: In}}}
		readers = append(readers, r)
		m.submit(r)
		if r.NPred() != 1 {
			t.Fatalf("reader should depend only on writer, npred=%d", r.NPred())
		}
	}
	w2 := &Task{Accesses: []Access{{Key: x, Mode: Out}}}
	m.submit(w2)
	if w2.NPred() != 5 {
		t.Fatalf("second writer should wait for writer+4 readers, npred=%d", w2.NPred())
	}
	m.runAll()
	for _, r := range readers {
		if pos(m.order, r) < pos(m.order, w) || pos(m.order, r) > pos(m.order, w2) {
			t.Fatal("reader escaped its writer window")
		}
	}
}

func TestWAWOrder(t *testing.T) {
	m := newMiniExec(2, true, 4)
	x := new(int)
	a := &Task{Accesses: []Access{{Key: x, Mode: Out}}}
	b := &Task{Accesses: []Access{{Key: x, Mode: Out}}}
	m.submit(a)
	m.submit(b)
	if b.NPred() != 1 {
		t.Fatalf("WAW edge missing, npred=%d", b.NPred())
	}
	m.runAll()
	if pos(m.order, a) > pos(m.order, b) {
		t.Fatal("WAW order violated")
	}
}

func TestDiamond(t *testing.T) {
	m := newMiniExec(4, true, 5)
	x, y, z := new(int), new(int), new(int)
	top := &Task{Label: "top", Accesses: []Access{{Key: x, Mode: Out}}}
	l := &Task{Label: "l", Accesses: []Access{{Key: x, Mode: In}, {Key: y, Mode: Out}}}
	r := &Task{Label: "r", Accesses: []Access{{Key: x, Mode: In}, {Key: z, Mode: Out}}}
	bot := &Task{Label: "bot", Accesses: []Access{{Key: y, Mode: In}, {Key: z, Mode: In}}}
	for _, tk := range []*Task{top, l, r, bot} {
		m.submit(tk)
	}
	if bot.NPred() != 2 {
		t.Fatalf("bottom npred=%d, want 2", bot.NPred())
	}
	m.runAll()
	if pos(m.order, top) > pos(m.order, l) || pos(m.order, top) > pos(m.order, r) ||
		pos(m.order, bot) < pos(m.order, l) || pos(m.order, bot) < pos(m.order, r) {
		t.Fatalf("diamond order violated: %v", labels(m.order))
	}
}

func labels(ts []*Task) []string {
	var out []string
	for _, t := range ts {
		out = append(out, t.Label)
	}
	return out
}

func TestEdgeDeduplication(t *testing.T) {
	m := newMiniExec(2, true, 7)
	x, y := new(int), new(int)
	a := &Task{Accesses: []Access{{Key: x, Mode: Out}, {Key: y, Mode: Out}}}
	b := &Task{Accesses: []Access{{Key: x, Mode: In}, {Key: y, Mode: In}}}
	m.submit(a)
	m.submit(b)
	if b.NPred() != 1 {
		t.Fatalf("duplicate edges: npred=%d, want 1", b.NPred())
	}
	m.runAll()
}

func TestPipelineCircularBuffer(t *testing.T) {
	// The Listing-1 shape: stages linked within an iteration via
	// stage-output data, and across iterations via inout stage contexts,
	// with a circular buffer of N frames providing manual renaming.
	const N, iters, stages = 3, 9, 4
	m := newMiniExec(4, true, 8)
	stageCtx := make([]*int, stages)
	for s := range stageCtx {
		stageCtx[s] = new(int)
	}
	frames := make([]*int, N)
	for i := range frames {
		frames[i] = new(int)
	}
	exec := make([][]int, stages) // per-stage executed iteration order
	var all []*Task
	for k := 0; k < iters; k++ {
		k := k
		slot := frames[k%N]
		for s := 0; s < stages; s++ {
			s := s
			acc := []Access{{Key: stageCtx[s], Mode: InOut}}
			if s == 0 {
				acc = append(acc, Access{Key: slot, Mode: Out})
			} else {
				acc = append(acc, Access{Key: slot, Mode: InOut})
			}
			tk := &Task{
				Label: fmt.Sprintf("s%d.i%d", s, k),
				Owner: testBody(func() error { exec[s] = append(exec[s], k); return nil }),
			}
			tk.Accesses = acc
			all = append(all, tk)
			m.submit(tk)
		}
	}
	m.runAll()
	if len(m.order) != len(all) {
		t.Fatalf("executed %d tasks, want %d", len(m.order), len(all))
	}
	for s := 0; s < stages; s++ {
		for i := 1; i < len(exec[s]); i++ {
			if exec[s][i] != exec[s][i-1]+1 {
				t.Fatalf("stage %d ran iterations out of order: %v", s, exec[s])
			}
		}
	}
}

// TestLastWriter pins the `taskwait on` lookup of a plain (non-renameable)
// datum: exactly its unfinished program-order last writer.
func TestLastWriter(t *testing.T) {
	m := newMiniExec(1, true, 9)
	x := new(int)
	if ws := m.g.Writers(x); len(ws) != 0 {
		t.Fatalf("untracked datum should have no writers, got %v", ws)
	}
	a := &Task{Accesses: []Access{{Key: x, Mode: Out}}}
	m.submit(a)
	if ws := m.g.Writers(x); len(ws) != 1 || ws[0] != a {
		t.Fatalf("writers = %v, want the pending writer", ws)
	}
	r := &Task{Accesses: []Access{{Key: x, Mode: In}}}
	m.submit(r)
	if ws := m.g.Writers(x); len(ws) != 1 || ws[0] != a {
		t.Fatalf("writers = %v: a reader must not become a writer", ws)
	}
	b := &Task{Accesses: []Access{{Key: x, Mode: InOut}}}
	m.submit(b)
	if ws := m.g.Writers(x); len(ws) != 1 || ws[0] != b {
		t.Fatalf("writers = %v, want only the later writer", ws)
	}
	m.runAll()
	if ws := m.g.Writers(x); len(ws) != 0 {
		t.Fatalf("finished writer should not be reported, got %v", ws)
	}
}

// settleProbe is an Owner that notes how its task read when Finish settled
// it.
type settleProbe struct {
	t                *Task
	done             <-chan struct{}
	finished, closed bool
}

func (p *settleProbe) Settle(error) {
	p.finished = p.t.Finished()
	select {
	case <-p.done:
		p.closed = true
	default:
	}
}

func (p *settleProbe) Recycle() {}

// TestFinishSettlesOwnerFirst checks that Finish settles a task's owner
// before the task reads as finished and before its Done channel closes, so
// a wait on the task — TaskwaitOn polls Finished on what Writers returns —
// that has returned finds the owner settled.
func TestFinishSettlesOwnerFirst(t *testing.T) {
	m := newMiniExec(1, false, 3)
	x := new(int)
	p := &settleProbe{}
	a := &Task{Owner: p, Accesses: []Access{{Key: x, Mode: Out}}}
	p.t, p.done = a, a.Done()
	a.Hold() // the executor's reference
	m.submit(a)
	m.runAll()
	if p.finished || p.closed {
		t.Fatalf("owner settled after the task read as finished (%v) or Done closed (%v)", p.finished, p.closed)
	}
	if !a.Finished() {
		t.Fatal("task not finished after Finish")
	}
	a.Drop()
}

// TestWritersExactKeyCompat checks that Writers answers for a raw pointer
// key with no registered handle.
func TestWritersExactKeyCompat(t *testing.T) {
	m := newMiniExec(1, true, 7)
	x := new(int)
	a := &Task{Accesses: []Access{{Key: x, Mode: Out}}}
	m.submit(a)
	if ws := m.g.Writers(x); len(ws) != 1 || ws[0] != a {
		t.Fatalf("exact-key Writers = %v", ws)
	}
	m.runAll()
}

func TestPriorityJumpsGlobalQueue(t *testing.T) {
	s := NewSched(1, Policy{}, 1)
	lo := &Task{Label: "lo"}
	hi := &Task{Label: "hi", Priority: 5}
	mid := &Task{Label: "mid", Priority: 2}
	s.PushSubmit(lo)
	s.PushSubmit(hi)
	s.PushSubmit(mid)
	got := []string{s.Pop(0).Label, s.Pop(0).Label, s.Pop(0).Label}
	want := []string{"hi", "mid", "lo"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("priority pop order %v, want %v", got, want)
		}
	}
}

func TestLocalityPlacement(t *testing.T) {
	s := NewSched(2, DefaultPolicy(), 1)
	a, b := &Task{Label: "a"}, &Task{Label: "b"}
	s.PushSubmit(a)   // global
	s.PushReady(b, 1) // released on worker 1
	if got := s.Pop(1); got != b {
		t.Fatalf("worker 1 should pop its local successor first, got %v", got.Label)
	}
	if got := s.Pop(1); got != a {
		t.Fatalf("then the global task, got %v", got.Label)
	}
}

func TestNoLocalityGoesGlobal(t *testing.T) {
	s := NewSched(2, Policy{}, 1)
	a, b := &Task{Label: "a"}, &Task{Label: "b"}
	s.PushSubmit(a)
	s.PushReady(b, 1)
	// FIFO: a first even for worker 1.
	if got := s.Pop(1); got != a {
		t.Fatalf("expected FIFO a, got %s", got.Label)
	}
}

func TestStealFromVictimTail(t *testing.T) {
	s := NewSched(2, DefaultPolicy(), 1)
	a, b := &Task{Label: "hot"}, &Task{Label: "cold"}
	// Worker 0's deque: hot at head, cold at tail.
	s.PushReady(b, 0)
	s.PushReady(a, 0)
	if got := s.Pop(1); got != b {
		t.Fatalf("thief should take tail (cold), got %s", got.Label)
	}
	st := s.Stats()
	if st.Steals != 1 {
		t.Fatalf("steals=%d, want 1", st.Steals)
	}
	if got := s.Pop(0); got != a {
		t.Fatalf("owner should keep head (hot), got %s", got.Label)
	}
}

func TestContextPending(t *testing.T) {
	m := newMiniExec(1, true, 10)
	ctx := &Context{}
	x := new(int)
	for i := 0; i < 3; i++ {
		m.submit(&Task{Parent: ctx, Accesses: []Access{{Key: x, Mode: InOut}}})
	}
	if ctx.Pending() != 3 {
		t.Fatalf("pending=%d, want 3", ctx.Pending())
	}
	m.runAll()
	if ctx.Pending() != 0 {
		t.Fatalf("pending=%d after drain, want 0", ctx.Pending())
	}
}

func TestGraphStats(t *testing.T) {
	m := newMiniExec(2, true, 11)
	x := new(int)
	m.submit(&Task{Accesses: []Access{{Key: x, Mode: Out}}})
	m.submit(&Task{Accesses: []Access{{Key: x, Mode: In}}})
	m.runAll()
	st := m.g.Stats()
	if st.Submitted != 2 || st.Finished != 2 || st.Edges != 1 {
		t.Fatalf("stats=%+v", st)
	}
}

// TestDataflowEquivalenceProperty is the central correctness property of the
// engine: for random programs over a small set of data, every reader must
// observe exactly the value produced by its program-order last writer, no
// matter how the scheduler interleaves ready tasks.
func TestDataflowEquivalenceProperty(t *testing.T) {
	type taskSpec struct {
		accesses []Access
		expect   map[int]uint64 // datum index -> expected version seen
	}
	f := func(seed int64, nTasks uint8, nData uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nt := int(nTasks%40) + 5
		nd := int(nData%5) + 1
		data := make([]*uint64, nd) // simulated datum contents: writer version
		keys := make([]any, nd)
		for i := range data {
			data[i] = new(uint64)
			keys[i] = data[i]
		}
		version := make([]uint64, nd) // program-order version counter
		m := newMiniExec(3, rng.Intn(2) == 0, seed)

		ok := true
		for i := 0; i < nt; i++ {
			spec := taskSpec{expect: map[int]uint64{}}
			nacc := rng.Intn(3) + 1
			used := map[int]bool{}
			for j := 0; j < nacc; j++ {
				di := rng.Intn(nd)
				if used[di] {
					continue
				}
				used[di] = true
				mode := []Mode{In, Out, InOut}[rng.Intn(3)]
				spec.accesses = append(spec.accesses, Access{Key: keys[di], Mode: mode})
				if mode == In || mode == InOut {
					spec.expect[di] = version[di]
				}
				if mode == Out || mode == InOut {
					version[di]++
				}
			}
			writes := map[int]uint64{}
			for di, v := range version {
				writes[di] = v
			}
			tk := &Task{}
			tk.Accesses = spec.accesses
			expected := spec.expect
			accs := spec.accesses
			tk.Owner = testBody(func() error {
				for _, a := range accs {
					di := indexOf(keys, a.Key)
					if a.Mode == In || a.Mode == InOut {
						if *data[di] != expected[di] {
							ok = false
						}
					}
				}
				for _, a := range accs {
					if a.Writes() {
						di := indexOf(keys, a.Key)
						*data[di] = writes[di]
					}
				}
				return nil
			})
			m.submit(tk)
		}
		m.runAll()
		return ok && m.g.Unfinished() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func indexOf(keys []any, k any) int {
	for i, kk := range keys {
		if kk == k {
			return i
		}
	}
	return -1
}

// TestInternHomesByOrdinal: a datum's shard — the lock stripe that guards
// it — comes from the order in which the graph first saw the key, not from
// the key, so two graphs registering different fresh allocations in the same
// order home them identically; and equal keys of every kind the engine
// meets intern to one datum, which a raw-key access resolves to as well.
func TestInternHomesByOrdinal(t *testing.T) {
	homes := func(pad int) []uint32 {
		g := NewGraph()
		sink := make([]byte, pad) // shift the allocations that follow
		var out []uint32
		for i := 0; i < 128; i++ {
			out = append(out, g.Register(new([4]int64)).shard)
		}
		_ = sink
		return out
	}
	a, b := homes(1<<10), homes(3<<14)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("datum %d homed on shard %d in one graph and %d in the other", i, a[i], b[i])
		}
	}

	g := NewGraph()
	x := new(int)
	type exotic struct{ a, b int }
	built := string([]byte("sharedkey"))
	pairs := [][2]any{
		{x, x}, {42, 42}, {int64(7), int64(7)}, {uint32(9), uint32(9)},
		{built, "sharedkey"}, {3.14, 3.14}, {true, true},
		{exotic{1, 2}, exotic{1, 2}}, {nil, nil},
	}
	seen := map[*Datum]bool{}
	for _, p := range pairs {
		d := g.Register(p[0])
		if g.Register(p[1]) != d {
			t.Fatalf("equal keys %#v and %#v interned to different datums", p[0], p[1])
		}
		if d.shard >= numShards {
			t.Fatalf("key %#v shard %d out of range", p[0], d.shard)
		}
		if seen[d] {
			t.Fatalf("key %#v shares a datum with a different key", p[0])
		}
		seen[d] = true
	}
	tk := &Task{Accesses: []Access{{Key: 42, Mode: In}}}
	g.Submit(tk)
	if tk.Accesses[0].Datum != g.Register(42) {
		t.Fatal("a raw-key access did not resolve to the registered datum")
	}
}
