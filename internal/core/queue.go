package core

import "sync/atomic"

// mpmcQueue is a Michael–Scott lock-free multi-producer multi-consumer FIFO,
// used as the global spawn queue (breadth-first submission order). Nodes are
// never reused, so there is no ABA hazard; the GC reclaims consumed nodes.
type mpmcQueue struct {
	head atomic.Pointer[qnode] // dummy; head.next is the front
	tail atomic.Pointer[qnode]
	n    atomic.Int64 // racy length estimate for idle predicates
}

type qnode struct {
	t    *Task
	next atomic.Pointer[qnode]
}

func (q *mpmcQueue) init() {
	d := &qnode{}
	q.head.Store(d)
	q.tail.Store(d)
}

func (q *mpmcQueue) enqueue(t *Task) {
	n := &qnode{t: t}
	for {
		tail := q.tail.Load()
		if tail.next.CompareAndSwap(nil, n) {
			q.tail.CompareAndSwap(tail, n)
			q.n.Add(1)
			return
		}
		// Tail lags; help swing it forward and retry.
		q.tail.CompareAndSwap(tail, tail.next.Load())
	}
}

func (q *mpmcQueue) dequeue() *Task {
	for {
		head := q.head.Load()
		next := head.next.Load()
		if next == nil {
			return nil
		}
		if q.head.CompareAndSwap(head, next) {
			q.n.Add(-1)
			return next.t
		}
	}
}

// length is exact when the queue is quiescent, a close estimate under
// concurrency (transient negatives are possible mid-operation).
func (q *mpmcQueue) length() int {
	n := int(q.n.Load())
	if n < 0 {
		return 0
	}
	return n
}
