package obs

import "sync/atomic"

// ring is one per-worker event buffer: a fixed power-of-two slot array
// written at a monotonically claimed head. When the head passes capacity
// the oldest events are overwritten — the ring keeps the newest `cap`
// events and the exact count of dropped ones (head − cap), which the
// analyzer reports so a truncated trace is never mistaken for a complete
// one.
//
// Writers claim a slot with one atomic fetch-add on head; the slot itself
// is published through a per-slot CAS latch. In the common case (one
// goroutine per lane) the latch is uncontended and costs a single
// CAS+store pair; it exists because lanes can be aliased (several
// goroutines submitting through the master TC, taskwaiters helping on a
// worker's lane), where two writers a full ring apart would otherwise race
// on one slot. Readers take the same latch per slot, so a mid-run snapshot
// is race-free too.
type ring struct {
	head  atomic.Uint64 // total events ever claimed on this ring
	slots []slot
	mask  uint64
	_     [40]byte // keep ring heads off each other's cache lines
}

type slot struct {
	latch atomic.Uint32
	ev    Event
}

func (r *ring) init(capacity int) {
	// Round up to a power of two so the claim maps to a slot with one mask.
	c := 1
	for c < capacity {
		c <<= 1
	}
	r.slots = make([]slot, c)
	r.mask = uint64(c - 1)
}

// put records ev, overwriting the oldest event when the ring is full.
func (r *ring) put(ev Event) {
	i := r.head.Add(1) - 1
	s := &r.slots[i&r.mask]
	for !s.latch.CompareAndSwap(0, 1) {
		// Another writer (aliased lane, a wrap apart) or a snapshot reader
		// holds the slot; spin — the hold is a handful of stores.
	}
	s.ev = ev
	s.latch.Store(0)
}

// dropped returns the exact number of events this ring has overwritten.
func (r *ring) dropped() uint64 {
	h := r.head.Load()
	if c := uint64(len(r.slots)); h > c {
		return h - c
	}
	return 0
}

// claimed is the prefix of slots that can hold an event: the first head
// slots until the ring wraps, all of them afterwards. Slots past it have
// never been written (or were cleared by the reset that rewound head), so
// collect and reset stop there — a drain of three events in a 1<<15 ring
// touches three slots, not 2.4 MB.
func (r *ring) claimed() []slot {
	return r.slots[:min(r.head.Load(), uint64(len(r.slots)))]
}

// collect appends the ring's live events to dst. Safe concurrently with
// writers (each slot is read under its latch); a slot claimed but not yet
// published is skipped this pass, as is one claimed after the pass began.
func (r *ring) collect(dst []Event) []Event {
	live := r.claimed()
	for i := range live {
		s := &live[i]
		if !s.latch.CompareAndSwap(0, 1) {
			continue
		}
		ev := s.ev
		s.latch.Store(0)
		if ev.Seq != 0 {
			dst = append(dst, ev)
		}
	}
	return dst
}

// reset forgets all recorded events and the drop count.
func (r *ring) reset() {
	live := r.claimed()
	r.head.Store(0)
	for i := range live {
		s := &live[i]
		for !s.latch.CompareAndSwap(0, 1) {
		}
		s.ev = Event{}
		s.latch.Store(0)
	}
}
