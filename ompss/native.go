package ompss

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ompssgo/internal/core"
)

// nativeClock runs the lifecycle on goroutines under the wall clock: every
// charge is free, locks are sync.Mutex, and the only synchronization it adds
// is the Blocking-mode idle gate, a monitor that idle workers and waiters
// park on; Polling mode (the OmpSs default) never touches it.
type nativeClock struct {
	epoch    time.Time
	blocking bool
	gate     idleGate
	l        *lifecycle // its scheduler (ready work ends a park) and setpoint block
}

func newNativeClock(cfg config) *nativeClock {
	c := &nativeClock{epoch: time.Now(), blocking: cfg.wait == Blocking}
	c.gate.cond = sync.NewCond(&c.gate.mu)
	return c
}

// idleGate parks Blocking-mode threads between work. The sequence number
// makes sleeps race-free without holding any lock on the work path: a
// would-be sleeper takes a ticket, re-checks for work, and sleeps only
// while the sequence is unchanged; every wake bumps the sequence, so a wake
// that lands between the ticket and the sleep turns the sleep into a no-op.
type idleGate struct {
	mu   sync.Mutex
	cond *sync.Cond
	seq  atomic.Uint64 // atomic so taking a ticket stays off the mutex on the hot path
}

func (g *idleGate) wait(ticket uint64) {
	g.mu.Lock()
	for g.seq.Load() == ticket {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// wake bumps the sequence under the monitor lock and broadcasts. Broadcast
// (not Signal) is deliberate: workers and waiters share the condvar, and a
// Signal could wake a waiter that cannot consume the event.
func (g *idleGate) wake() {
	g.mu.Lock()
	g.seq.Add(1)
	g.cond.Broadcast()
	g.mu.Unlock()
}

const (
	spinYields     = 64
	spinSleepCapNS = 100_000
)

// spin is the Polling-mode idle throttle: a thread that keeps missing
// yields its slice for a while, then sleeps with linearly growing duration
// (capped at 100µs). Without it, oversubscribed polling threads — 32 lanes
// on a 2-core host — spin the cores bare and starve the lanes doing real
// work; with it, release latency stays in the tens of microseconds, which
// is the polling-vs-blocking gap the paper's §4 measures.
//
// With a Tunables block installed, the yield budget and sleep cap are read
// per miss from the controller's setpoints — one atomic load each on the
// idle path only — so Tuning{StealBackoff: Auto} can deepen the backoff
// when the steal matrix reports mostly failed probes.
func (c *nativeClock) spin(misses int) {
	yields, capNS := spinYields, int64(spinSleepCapNS)
	if tn := c.l.tn; tn != nil { // nil: static backoff
		if y := tn.SpinYields.Load(); y > 0 {
			yields = int(y)
		}
		if s := tn.SleepCapNS.Load(); s > 0 {
			capNS = s
		}
	}
	if misses <= yields {
		runtime.Gosched()
		return
	}
	time.Sleep(min(time.Duration(misses-yields)*time.Microsecond, time.Duration(capNS)))
}

func (c *nativeClock) park(_ int, _ any, misses int, cond func() bool) {
	if !c.blocking {
		c.spin(misses)
		return
	}
	if ticket := c.gate.seq.Load(); !cond() && c.l.sched.Ready() == 0 {
		c.gate.wait(ticket)
	}
}

func (c *nativeClock) wake(*core.Task, int) {
	if c.blocking {
		c.gate.wake()
	}
}

// cancelWake is safe from any goroutine (context.AfterFunc fires on a timer
// goroutine).
func (c *nativeClock) cancelWake() { c.wake(nil, 0) }
func (c *nativeClock) pollCancel() {} // cancellations arrive by call

func (c *nativeClock) now() int64                        { return int64(time.Since(c.epoch)) }
func (c *nativeClock) charge(int, cost, int64)           {}           // bodies do real work
func (c *nativeClock) touch(int, any, int64, bool) int64 { return 0 } // memory is real
func (c *nativeClock) lock(_ int, m *rtLock)             { m.host.Lock() }
func (c *nativeClock) unlock(_ int, m *rtLock)           { m.host.Unlock() }
