package obs

import (
	"sync"
	"testing"
)

func testClock() func() int64 {
	var t int64
	return func() int64 { t++; return t }
}

// TestRingKeepsNewestAndCountsDropsExactly drives more events than the
// ring holds and checks the two halves of the wraparound contract: the
// drop count is exactly total−capacity, and the surviving events are
// exactly the newest `capacity` ones.
func TestRingKeepsNewestAndCountsDropsExactly(t *testing.T) {
	const capacity, total = 64, 1000
	r := NewRecorder(Capacity(capacity))
	r.Attach(1, "test", false, testClock())
	for i := 0; i < total; i++ {
		r.Emit(0, EvStart, uint64(i+1), 0)
	}
	tr := r.Snapshot()
	if got := tr.Dropped[0]; got != total-capacity {
		t.Fatalf("ring 0 dropped %d, want exactly %d", got, total-capacity)
	}
	if got := tr.TotalDropped(); got != total-capacity {
		t.Fatalf("TotalDropped %d, want %d", got, total-capacity)
	}
	if len(tr.Events) != capacity {
		t.Fatalf("kept %d events, want %d", len(tr.Events), capacity)
	}
	for i, ev := range tr.Events {
		wantSeq := uint64(total - capacity + i + 1)
		if ev.Seq != wantSeq {
			t.Fatalf("event %d: seq %d, want %d (oldest events must go first)", i, ev.Seq, wantSeq)
		}
		if ev.Task != wantSeq {
			t.Fatalf("event %d: task %d, want %d", i, ev.Task, wantSeq)
		}
	}
}

// TestRingBelowCapacityDropsNothing is the no-wrap boundary case.
func TestRingBelowCapacityDropsNothing(t *testing.T) {
	r := NewRecorder(Capacity(64))
	r.Attach(2, "test", false, testClock())
	for i := 0; i < 64; i++ {
		r.Emit(i%2, EvStart, uint64(i+1), 0)
	}
	tr := r.Snapshot()
	if d := tr.TotalDropped(); d != 0 {
		t.Fatalf("dropped %d, want 0", d)
	}
	if len(tr.Events) != 64 {
		t.Fatalf("kept %d events, want 64", len(tr.Events))
	}
}

// TestRingCapacityRoundsToPowerOfTwo pins the slot-count rounding the mask
// arithmetic depends on.
func TestRingCapacityRoundsToPowerOfTwo(t *testing.T) {
	var r ring
	r.init(100)
	if len(r.slots) != 128 {
		t.Fatalf("init(100) allocated %d slots, want 128", len(r.slots))
	}
	if r.mask != 127 {
		t.Fatalf("mask %d, want 127", r.mask)
	}
}

// TestRecorderConcurrentEmit hammers every lane — including aliased lanes
// and the overflow ring — from many goroutines while rings wrap, with a
// concurrent snapshot in flight. Under -race this verifies the slot-latch
// discipline: no unsynchronized slot write is possible even when two
// writers land a full ring apart.
func TestRecorderConcurrentEmit(t *testing.T) {
	const workers, perG, goroutines = 4, 5000, 8
	r := NewRecorder(Capacity(256))
	r.Attach(workers, "test", false, func() int64 { return 0 })
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Alias lanes deliberately; -1 exercises the overflow ring.
				r.Emit(g%workers-1, EvSteal, uint64(i), uint64(g))
			}
		}()
	}
	mid := r.Snapshot() // concurrent snapshot must be race-free too
	wg.Wait()
	_ = mid
	tr := r.Snapshot()
	var kept, total uint64
	kept = uint64(len(tr.Events))
	for i := range r.rings {
		total += r.rings[i].head.Load()
	}
	if total != goroutines*perG {
		t.Fatalf("claimed %d slots, want %d", total, goroutines*perG)
	}
	// Conservation: every claimed slot is either still holding an event or
	// counted as dropped.
	if kept+tr.TotalDropped() != total {
		t.Fatalf("conservation: kept %d + dropped %d != emitted %d", kept, tr.TotalDropped(), total)
	}
	// Seqs are unique.
	seen := make(map[uint64]bool, kept)
	for _, ev := range tr.Events {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d in snapshot", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

// TestEmitBeforeAttachIsNoop pins the detached-recorder guard.
func TestEmitBeforeAttachIsNoop(t *testing.T) {
	r := NewRecorder()
	r.Emit(0, EvStart, 1, 0) // must not panic
	if len(r.rings) > 0 {
		t.Fatal("recorder reports attached before Attach")
	}
	tr := r.Snapshot()
	if len(tr.Events) != 0 || tr.TotalDropped() != 0 {
		t.Fatalf("detached recorder produced events: %d/%d", len(tr.Events), tr.TotalDropped())
	}
}

// TestKindRoundTrip pins the name table used by the trace-file format.
func TestKindRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Fatalf("kind %d (%s) does not round-trip (got %d, ok=%v)", k, k, got, ok)
		}
	}
	if _, ok := KindFromString("nope"); ok {
		t.Fatal("unknown kind parsed")
	}
}

// TestEmitAllocationFree is the record-path half of the overhead contract:
// steady-state emission performs zero heap allocations, wrapped rings
// included.
func TestEmitAllocationFree(t *testing.T) {
	r := NewRecorder(Capacity(128))
	r.Attach(2, "test", false, func() int64 { return 42 })
	if n := testing.AllocsPerRun(2000, func() {
		r.Emit(0, EvStart, 7, 0)
		r.EmitLabel(1, EvSubmit, 7, 1, "label")
		r.StealEvent(0, 1, 7)
		r.RenameEvent(7)
		g, _ := r.Group(0, 3)
		g.Add(EvEnd, 7, 0, "")
		g.Add(EvReady, 8, 0, "")
		g.Add(EvReady, 9, 0, "")
	}); n != 0 {
		t.Fatalf("record path allocates %.1f allocs/run, want 0", n)
	}
}

// TestGroupSharesInstantAndOrdersSeq pins the group contract: all events
// of one group carry the same timestamp and consecutive seqs, and groups
// claimed later sort after.
func TestGroupSharesInstantAndOrdersSeq(t *testing.T) {
	r := NewRecorder(Capacity(64))
	r.Attach(1, "test", false, testClock())
	g1, ok := r.Group(0, 2)
	if !ok {
		t.Fatal("group claim failed on attached recorder")
	}
	g1.Add(EvEnd, 1, 0, "")
	g1.Add(EvReady, 2, 0, "")
	r.Emit(0, EvStart, 2, 0)
	tr := r.Snapshot()
	if len(tr.Events) != 3 {
		t.Fatalf("got %d events, want 3", len(tr.Events))
	}
	if tr.Events[0].Seq != 1 || tr.Events[1].Seq != 2 || tr.Events[2].Seq != 3 {
		t.Fatalf("seqs %d,%d,%d — want 1,2,3", tr.Events[0].Seq, tr.Events[1].Seq, tr.Events[2].Seq)
	}
	if tr.Events[0].At != tr.Events[1].At {
		t.Fatalf("group events have different timestamps: %d vs %d", tr.Events[0].At, tr.Events[1].At)
	}
	if tr.Events[2].At <= tr.Events[1].At {
		t.Fatalf("later emit did not advance the clock: %d <= %d", tr.Events[2].At, tr.Events[1].At)
	}
	if g, ok := NewRecorder().Group(0, 1); ok || g.ring != nil {
		t.Fatal("detached recorder handed out a live group")
	}
}

// TestDrainSparseRing is the distributed worker's case: a handful of events
// in a default-size ring, drained after every task. The drain returns
// exactly what was recorded and leaves nothing behind — collect and reset
// walk only the claimed prefix, so the slots they never visit must already
// be empty.
func TestDrainSparseRing(t *testing.T) {
	r := NewRecorder(Capacity(1 << 15))
	r.Attach(1, "test", false, testClock())
	for round := 0; round < 3; round++ {
		for i := 0; i < 3; i++ {
			r.Emit(0, EvStart, uint64(10*round+i+1), 0)
		}
		evs, dropped := r.Drain()
		if len(evs) != 3 || dropped != 0 {
			t.Fatalf("round %d: drained %d events, %d dropped; want 3, 0", round, len(evs), dropped)
		}
		for i, ev := range evs {
			if want := uint64(10*round + i + 1); ev.Task != want || ev.Seq != uint64(3*round+i+1) {
				t.Fatalf("round %d event %d: task %d seq %d, want task %d seq %d",
					round, i, ev.Task, ev.Seq, want, 3*round+i+1)
			}
		}
		if evs, dropped := r.Drain(); len(evs) != 0 || dropped != 0 {
			t.Fatalf("round %d: second drain returned %d events, %d dropped", round, len(evs), dropped)
		}
	}
}

// TestDrainWrappedRing: once head has passed capacity the claimed prefix
// is the whole ring — the drain yields the newest `capacity` events with
// the exact drop count, and the reset clears every slot, so the next
// (sparse) batch holds only its own events.
func TestDrainWrappedRing(t *testing.T) {
	const capacity, total = 64, 1000
	r := NewRecorder(Capacity(capacity))
	r.Attach(1, "test", false, testClock())
	for i := 0; i < total; i++ {
		r.Emit(0, EvStart, uint64(i+1), 0)
	}
	evs, dropped := r.Drain()
	if dropped != total-capacity || len(evs) != capacity {
		t.Fatalf("drained %d events, %d dropped; want %d, %d", len(evs), dropped, capacity, total-capacity)
	}
	for i, ev := range evs {
		if want := uint64(total - capacity + i + 1); ev.Seq != want {
			t.Fatalf("event %d: seq %d, want %d", i, ev.Seq, want)
		}
	}
	r.Emit(0, EvEnd, 7, 0)
	r.Emit(0, EvEnd, 8, 0)
	evs, dropped = r.Drain()
	if len(evs) != 2 || dropped != 0 || evs[0].Task != 7 || evs[1].Task != 8 {
		t.Fatalf("batch after a wrapped drain: %d events (%+v), %d dropped; want tasks 7, 8", len(evs), evs, dropped)
	}
}

// TestSnapshotDuringSparseEmit races collect against put on a ring that
// never wraps: every snapshot must be a duplicate-free prefix-or-subset of
// what was emitted (a slot claimed after the pass began is simply not in
// it), and the final one must hold everything. Run under -race.
func TestSnapshotDuringSparseEmit(t *testing.T) {
	const total = 4000
	r := NewRecorder(Capacity(1 << 13))
	r.Attach(1, "test", false, func() int64 { return 0 })
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			r.Emit(0, EvStart, uint64(i+1), 0)
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		tr := r.Snapshot()
		seen := make(map[uint64]bool, len(tr.Events))
		for _, ev := range tr.Events {
			if ev.Seq == 0 || ev.Seq > total || seen[ev.Seq] {
				t.Fatalf("mid-run snapshot holds a bad or duplicate seq %d", ev.Seq)
			}
			seen[ev.Seq] = true
		}
	}
	if tr := r.Snapshot(); len(tr.Events) != total || tr.TotalDropped() != 0 {
		t.Fatalf("final snapshot: %d events, %d dropped; want %d, 0", len(tr.Events), tr.TotalDropped(), total)
	}
}

// BenchmarkDrainSparse is the distributed worker's per-task drain: four
// events in a default-capacity ring (two lanes, as a worker attaches). The
// cost must follow the events recorded, not the 32,768 slots allocated.
func BenchmarkDrainSparse(b *testing.B) {
	rec := NewRecorder()
	var t int64
	rec.Attach(1, "bench", false, func() int64 { t++; return t })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 4; j++ {
			rec.Emit(0, EvStart, uint64(i), 0)
		}
		if evs, _ := rec.Drain(); len(evs) != 4 {
			b.Fatalf("drained %d events, want 4", len(evs))
		}
	}
}
