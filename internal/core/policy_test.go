package core

import (
	"testing"
)

func TestDomainOfContiguousBlocks(t *testing.T) {
	p := Policy{Domains: 2}
	got := make([]int, 8)
	for w := 0; w < 8; w++ {
		got[w] = p.DomainOf(w, 8)
	}
	want := []int{0, 0, 0, 0, 1, 1, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DomainOf over 8 workers / 2 domains = %v, want %v", got, want)
		}
	}
	// Degenerate configurations collapse to one domain.
	for _, d := range []int{0, 1} {
		p := Policy{Domains: d}
		if p.DomainOf(3, 4) != 0 {
			t.Fatalf("Domains=%d should be flat", d)
		}
	}
	// Out-of-range lanes (overflow stats lane) report domain 0.
	if p.DomainOf(-1, 8) != 0 || p.DomainOf(8, 8) != 0 {
		t.Fatal("out-of-range lanes must map to domain 0")
	}
}

func TestDomainOfMatchesDomainBounds(t *testing.T) {
	// DomainOf must be the exact inverse of the domainBounds partition for
	// every worker count and domain count, including uneven splits.
	for workers := 1; workers <= 16; workers++ {
		for domains := 1; domains <= 8; domains++ {
			p := Policy{Domains: domains}
			for w := 0; w < workers; w++ {
				dom := p.DomainOf(w, workers)
				lo, hi := p.domainBounds(dom, workers)
				if w < lo || w >= hi {
					t.Fatalf("workers=%d domains=%d: worker %d in domain %d but bounds [%d,%d)",
						workers, domains, w, dom, lo, hi)
				}
			}
		}
	}
}

func TestVictimOrderCoversEveryOtherWorker(t *testing.T) {
	for _, domains := range []int{1, 2, 3} {
		p := Policy{Domains: domains}
		for _, workers := range []int{1, 2, 5, 8, 33} {
			// In-range workers skip themselves; out-of-range callers (the
			// overflow stats lane at index `workers`, and -1) probe everyone.
			for w := -1; w <= workers; w++ {
				want := workers - 1
				if w < 0 || w >= workers {
					want = workers
				}
				for _, rnd := range []uint64{0, 1, 0xdeadbeefcafe, ^uint64(0)} {
					order := p.VictimOrder(nil, w, workers, rnd)
					if len(order) != want {
						t.Fatalf("d=%d w=%d/%d rnd=%d: %d victims, want %d",
							domains, w, workers, rnd, len(order), want)
					}
					seen := map[int]bool{}
					for _, v := range order {
						if v == w || v < 0 || v >= workers || seen[v] {
							t.Fatalf("d=%d w=%d/%d: bad victim order %v", domains, w, workers, order)
						}
						seen[v] = true
					}
				}
			}
		}
	}
}

func TestVictimOrderProbesOwnDomainFirst(t *testing.T) {
	p := Policy{Domains: 2}
	const workers = 8
	for w := 0; w < workers; w++ {
		order := p.VictimOrder(nil, w, workers, 12345)
		home := p.DomainOf(w, workers)
		// The first len(domain)-1 probes must all be same-domain victims.
		sameDomain := workers/2 - 1
		for i, v := range order {
			inHome := p.DomainOf(v, workers) == home
			if i < sameDomain && !inHome {
				t.Fatalf("w=%d: probe %d crossed domains early: %v", w, i, order)
			}
			if i >= sameDomain && inHome {
				t.Fatalf("w=%d: same-domain victim at probe %d after cross-domain ones: %v", w, i, order)
			}
		}
	}
}

func TestHomeLaneStableAndInRange(t *testing.T) {
	p := DefaultPolicy()
	for shard := uint32(0); shard < numShards; shard++ {
		l := p.HomeLane(shard, 5)
		if l < 0 || l >= 5 {
			t.Fatalf("HomeLane(%d, 5) = %d out of range", shard, l)
		}
		if l != p.HomeLane(shard, 5) {
			t.Fatal("HomeLane must be deterministic")
		}
	}
}

func TestAffinityMailboxPlacement(t *testing.T) {
	const workers = 4
	s := NewSched(workers, DefaultPolicy(), 1)
	tk := &Task{Label: "pinned"}
	tk.SetAffinity(7)
	home := s.Policy().HomeLane(7, workers)
	s.PushSubmit(tk)
	// The home lane finds it as a mailbox pop, without stealing.
	if got := s.Pop(home); got != tk {
		t.Fatalf("home lane %d did not pop the pinned task, got %v", home, got)
	}
	st := s.Stats()
	if st.AffinityPops != 1 {
		t.Fatalf("affinity pops = %d, want 1", st.AffinityPops)
	}
}

func TestAffinityOffIgnoresHint(t *testing.T) {
	s := NewSched(2, Policy{Locality: true, Affinity: false}, 1)
	tk := &Task{}
	tk.SetAffinity(3)
	s.PushSubmit(tk)
	if got := s.Pop(0); got != tk {
		t.Fatal("with AffinityOff the task should sit in the global FIFO")
	}
	if st := s.Stats(); st.AffinityPops != 0 || st.GlobalPops != 1 {
		t.Fatalf("stats = %+v, want one global pop", st)
	}
}

func TestAffinityMailboxStealable(t *testing.T) {
	// A pinned task must not starve when its home lane never polls: any
	// other lane steals it from the mailbox.
	const workers = 4
	s := NewSched(workers, DefaultPolicy(), 1)
	tk := &Task{}
	tk.SetAffinity(2)
	home := s.Policy().HomeLane(2, workers)
	s.PushSubmit(tk)
	thief := (home + 1) % workers
	if got := s.Pop(thief); got != tk {
		t.Fatalf("thief %d could not steal from mailbox of %d", thief, home)
	}
	if st := s.Stats(); st.Steals != 1 {
		t.Fatalf("steals = %d, want 1", st.Steals)
	}
}

func TestPriorityReleaseLandsOnPrioLane(t *testing.T) {
	s := NewSched(2, DefaultPolicy(), 1)
	lo := &Task{Label: "lo"}
	hi := &Task{Label: "hi", Priority: 3}
	s.PushReady(lo, 0) // locality deque
	s.PushReady(hi, 0) // priority lane
	// The priority successor is popped before the locality chain.
	if got := s.Pop(0); got != hi {
		t.Fatalf("expected priority lane first, got %q", got.Label)
	}
	if got := s.Pop(0); got != lo {
		t.Fatalf("expected locality deque second, got %q", got.Label)
	}
	st := s.Stats()
	if st.PrioPops != 1 || st.LocalPops != 1 {
		t.Fatalf("stats = %+v, want one prio pop and one local pop", st)
	}
}

func TestPrioLaneStealable(t *testing.T) {
	s := NewSched(2, DefaultPolicy(), 1)
	hi := &Task{Priority: 5}
	s.PushReady(hi, 0)
	if got := s.Pop(1); got != hi {
		t.Fatal("thief should steal from the victim's priority lane")
	}
}

func TestDomainStealsCounted(t *testing.T) {
	s := NewSched(4, Policy{Locality: true, Affinity: true, Domains: 2}, 1)
	near := &Task{Label: "near"}
	s.PushReady(near, 1) // worker 1's deque; worker 0 shares its domain
	if got := s.Pop(0); got != near {
		t.Fatal("worker 0 should steal from same-domain worker 1")
	}
	st := s.Stats()
	if st.Steals != 1 || st.DomainSteals != 1 {
		t.Fatalf("stats = %+v, want one same-domain steal", st)
	}
	far := &Task{Label: "far"}
	s.PushReady(far, 3) // other domain
	if got := s.Pop(0); got != far {
		t.Fatal("worker 0 should eventually cross domains")
	}
	st = s.Stats()
	if st.Steals != 2 || st.DomainSteals != 1 {
		t.Fatalf("stats = %+v, want the second steal to be cross-domain", st)
	}
}

// TestWideSchedStealsAllocationFree pins the steal hot path at a worker
// count beyond any stack buffer: one worker drains every other lane's work
// through domain-ordered stealing, and an idle Pop sweep (the Polling-mode
// spin state) must not allocate.
func TestWideSchedStealsAllocationFree(t *testing.T) {
	const workers = 48
	s := NewSched(workers, Policy{Locality: true, Affinity: true, Domains: 4}, 1)
	for i := 0; i < workers; i++ {
		s.PushReady(&Task{}, i)
	}
	got := 0
	for i := 0; i < workers; i++ {
		if s.Pop(7) != nil {
			got++
		}
	}
	if got != workers {
		t.Fatalf("worker 7 drained %d of %d tasks", got, workers)
	}
	if s.Pop(7) != nil {
		t.Fatal("scheduler should be empty")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if s.Pop(7) != nil {
			t.Fatal("unexpected task")
		}
	})
	if allocs > 0 {
		t.Fatalf("idle Pop allocates %.1f/op at %d workers; the steal path must be allocation-free", allocs, workers)
	}
}
