package core

// Engine-level tests of the Domain layer (the session's engine half):
// first-wins cancellation, exact charge/credit accounting, domain-confined
// failure propagation along dependence edges, task recycling hygiene, and
// the Release path a session's close-time arena recycling depends on.

import (
	"fmt"
	"sync"
	"testing"
)

// TestDomainCancelFirstWins checks the cancellation CAS: the first cause
// sticks, later causes and nil are rejected, and the cause reads back
// stably — from many goroutines at once.
func TestDomainCancelFirstWins(t *testing.T) {
	var d Domain
	if d.CancelCause() != nil {
		t.Fatal("zero domain reports a cancellation cause")
	}
	if d.Cancel(nil) {
		t.Fatal("Cancel(nil) installed a cause")
	}
	const racers = 8
	causes := make([]error, racers)
	for i := range causes {
		causes[i] = fmt.Errorf("cause %d", i)
	}
	wins := make(chan int, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d.Cancel(causes[i]) {
				wins <- i
			}
		}()
	}
	wg.Wait()
	close(wins)
	var winners []int
	for w := range wins {
		winners = append(winners, w)
	}
	if len(winners) != 1 {
		t.Fatalf("%d Cancel calls reported installing the cause, want exactly 1", len(winners))
	}
	if got := d.CancelCause(); got != causes[winners[0]] {
		t.Fatalf("CancelCause = %v, want the winner's cause %v", got, causes[winners[0]])
	}
	if d.Cancel(fmt.Errorf("late")) {
		t.Fatal("a second cause displaced the first")
	}
}

// TestDomainAccounting checks the charge/credit arithmetic: InFlight is
// exact, Uncharge rolls back a refused spawn without trace, and finish
// outcomes land in the right buckets.
func TestDomainAccounting(t *testing.T) {
	d := &Domain{ID: 7}

	for i := 0; i < 4; i++ {
		d.Charge()
	}
	if got := d.InFlight(); got != 4 {
		t.Fatalf("InFlight = %d, want 4", got)
	}
	// A refused spawn rolls back fully.
	d.Charge()
	d.Uncharge()
	st := d.Stats()
	if st.Submitted != 4 || st.InFlight != 4 {
		t.Fatalf("after Uncharge: submitted=%d inflight=%d, want 4 4", st.Submitted, st.InFlight)
	}

	d.taskFinished(nil, false)                // success
	d.taskFinished(fmt.Errorf("boom"), false) // failure
	d.taskFinished(fmt.Errorf("skip"), true)  // skip-release
	st = d.Stats()
	if st.Finished != 3 || st.Failed != 2 || st.Skipped != 1 || st.InFlight != 1 {
		t.Fatalf("stats %+v, want finished=3 failed=2 skipped=1 inflight=1", st)
	}
	d.taskFinished(nil, false)
	if got := d.InFlight(); got != 0 {
		t.Fatalf("drained InFlight = %d, want 0", got)
	}
}

// TestFinishConfinesFailureToDomain checks the engine contract the session
// isolation rides on: a dependence edge between tasks of different domains
// orders execution but never carries the failure, while a same-domain edge
// does. Both successors share the failing writer's datum.
func TestFinishConfinesFailureToDomain(t *testing.T) {
	domA, domB := &Domain{ID: 1}, &Domain{ID: 2}
	m := newMiniExec(2, true, 1)
	x := new(int)
	boom := fmt.Errorf("boom")
	head := &Task{Domain: domA, Accesses: []Access{{Key: x, Mode: Out}},
		Owner: testBody(func() error { return boom })}
	sameDom := &Task{Domain: domA, Accesses: []Access{{Key: x, Mode: In}}}
	crossDom := &Task{Domain: domB, Accesses: []Access{{Key: x, Mode: In}}}
	m.submit(head)
	m.submit(sameDom)
	m.submit(crossDom)
	m.runAll()

	if got := sameDom.Upstream(); got == nil {
		t.Fatal("same-domain successor did not inherit the upstream failure")
	}
	if got := crossDom.Upstream(); got != nil {
		t.Fatalf("cross-domain successor inherited foreign failure %v", got)
	}
	if pos(m.order, head) > pos(m.order, crossDom) {
		t.Fatal("cross-domain edge did not order execution")
	}
}

// TestGraphRelease checks the close-time arena path: Release drops exactly
// the datums its domain created — a key interned before the domain keeps its
// datum even though the domain's tasks touched it — a re-interned key gets a
// fresh datum, and releasing the domain again leaves that fresh datum alone.
func TestGraphRelease(t *testing.T) {
	m := newMiniExec(1, false, 1)
	pre, key := new(int), new(int)
	shared := m.g.Register(pre)
	dom := &Domain{Scoped: true}

	d1 := m.g.Intern(key, dom)
	if m.g.Intern(pre, dom) != shared {
		t.Fatal("interning an existing key must return its datum")
	}
	tk := &Task{Domain: dom, Accesses: []Access{{Key: key, Mode: Out}, {Key: pre, Mode: Out}}}
	m.submit(tk)
	m.runAll()
	if tk.Accesses[0].Datum != d1 || tk.Accesses[1].Datum != shared {
		t.Fatal("raw-key accesses did not resolve to the interned datums")
	}
	if n := m.g.Records(); n != 2 {
		t.Fatalf("Records = %d before Release, want 2", n)
	}
	m.g.Release(dom)
	if n := m.g.Records(); n != 1 {
		t.Fatalf("Records = %d after Release, want 1 (the pre-existing datum)", n)
	}
	if m.g.Register(pre) != shared {
		t.Fatal("Release dropped a datum its domain did not create")
	}

	d2 := m.g.Register(key)
	if d2 == d1 {
		t.Fatal("re-registration after Release returned the released datum")
	}
	tk2 := &Task{Accesses: []Access{{Key: d2.Key, Mode: Out}}}
	if !m.g.Submit(tk2) {
		t.Fatal("writer on a fresh datum should be ready")
	}
	m.s.PushSubmit(tk2)

	// A second release of the drained domain: the key now belongs to d2,
	// which no domain owns, so it must survive.
	m.g.Release(dom)
	if ws := m.g.Writers(key); len(ws) != 1 || ws[0] != tk2 {
		t.Fatalf("stale Release dropped the live datum (writers %v, want tk2)", ws)
	}
	m.runAll()
}

// TestReleaseDropsRecord: releasing the domain that interned a key erases
// the key's dependence history — the next access interns a fresh datum.
// (An executor releases only drained domains; the engine itself just
// forgets, so the writer is left in flight here to make the erasure
// observable.)
func TestReleaseDropsRecord(t *testing.T) {
	m := newMiniExec(1, true, 24)
	dom := &Domain{Scoped: true}
	x := new(int)
	m.submit(&Task{Domain: dom, Accesses: []Access{{Key: x, Mode: Out}}})
	m.g.Release(dom)
	b := &Task{Accesses: []Access{{Key: x, Mode: Out}}}
	m.submit(b)
	if b.NPred() != 0 {
		t.Fatal("Release should erase the dependence history")
	}
	m.runAll()
}
