package core

import "sync/atomic"

// wsDeque is a Chase–Lev work-stealing deque: the owning worker pushes and
// pops at the bottom (LIFO, keeping producer→consumer chains hot), thieves
// steal the oldest task from the top. All operations are lock-free; only
// the last-element pop and every steal synchronize, through one CAS on
// `top`. Owner operations (pushBottom, popBottom) must be serialized by the
// caller — Sched guards them with a per-lane owner TryLock, so aliased
// lanes (several goroutines sharing the master TC) stay safe.
//
// The ring grows by doubling; thieves racing a grow keep reading the old
// ring, whose slots for in-flight indices remain valid (the GC keeps the
// retired ring alive for them).
type wsDeque struct {
	top    atomic.Int64 // next index to steal (grows upward)
	bottom atomic.Int64 // next index to push
	ring   atomic.Pointer[dequeRing]
}

type dequeRing struct {
	mask int64 // len(buf)-1; len is a power of two
	buf  []atomic.Pointer[Task]
}

func newDequeRing(size int64) *dequeRing {
	return &dequeRing{mask: size - 1, buf: make([]atomic.Pointer[Task], size)}
}

func (r *dequeRing) get(i int64) *Task    { return r.buf[i&r.mask].Load() }
func (r *dequeRing) put(i int64, t *Task) { r.buf[i&r.mask].Store(t) }
func (r *dequeRing) grow(top, bottom int64) *dequeRing {
	nr := newDequeRing((r.mask + 1) * 2)
	for i := top; i < bottom; i++ {
		nr.put(i, r.get(i))
	}
	return nr
}

func (d *wsDeque) init() { d.ring.Store(newDequeRing(32)) }

// size is a racy estimate of queued tasks; exact when the deque is quiescent
// (it is only used for idle/wait predicates and the sim's serialized checks).
func (d *wsDeque) size() int {
	b, t := d.bottom.Load(), d.top.Load()
	if b > t {
		return int(b - t)
	}
	return 0
}

// pushBottom adds t at the owner's end. Owner-serialized.
func (d *wsDeque) pushBottom(t *Task) {
	b := d.bottom.Load()
	top := d.top.Load()
	r := d.ring.Load()
	if b-top >= int64(len(r.buf)) {
		r = r.grow(top, b)
		d.ring.Store(r)
	}
	r.put(b, t)
	d.bottom.Store(b + 1)
}

// popBottom removes the newest task. Owner-serialized. Returns nil when the
// deque is empty or a thief won the race for the last element.
func (d *wsDeque) popBottom() *Task {
	b := d.bottom.Load() - 1
	r := d.ring.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: restore the canonical empty state.
		d.bottom.Store(t)
		return nil
	}
	task := r.get(b)
	if b > t {
		// Clear the slot so the consumed task is not pinned until the ring
		// index wraps. Safe: a thief only reads a slot whose index is below
		// a bottom value it loaded after our bottom store, so it can no
		// longer observe index b before a push overwrites it.
		r.put(b, nil)
		return task
	}
	// Last element: race thieves for it via the top CAS.
	if !d.top.CompareAndSwap(t, t+1) {
		task = nil
	} else {
		// Won the race: clearing is safe for the same reason — any thief
		// still looking at this slot will fail its top CAS and discard.
		r.put(b, nil)
	}
	d.bottom.Store(t + 1)
	return task
}

// steal removes the oldest task; safe from any thread. retry reports a lost
// CAS race (the caller may re-probe); (nil, false) means empty.
func (d *wsDeque) steal() (task *Task, retry bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil, false
	}
	r := d.ring.Load()
	task = r.get(t)
	if !d.top.CompareAndSwap(t, t+1) {
		return nil, true
	}
	return task, false
}
