// Package poolcheck instruments the task-record pool of package ompss for
// tests. While a Probe is installed, ompss counts every record it hands out
// and every record it takes back, and the records and bins the pool makes
// when it has none to hand out; with Poison set it also overwrites each
// record it takes back with sentinels — ID ^0, label "recycled", a body
// that panics — so code that still reads a recycled record sees a task that
// cannot be its own. Without a probe the pool pays one atomic load per
// record and counts nothing.
//
// A test binary installs one probe, in TestMain, and keeps it for the whole
// run: records poisoned while it is installed stay in the pool after it.
package poolcheck

import (
	"sync/atomic"
	"time"
)

// Probe counts the records of the pool.
type Probe struct {
	// Poison overwrites records with sentinels as they are taken back.
	Poison bool

	out, in    atomic.Int64
	recs, bins atomic.Int64
}

var active atomic.Pointer[Probe]

// Install makes p the active probe.
func Install(p *Probe) { active.Store(p) }

// Active returns the installed probe, or nil.
func Active() *Probe { return active.Load() }

// HandOut counts one record handed out by the pool.
func (p *Probe) HandOut() { p.out.Add(1) }

// TakeBack counts one record returned to the pool.
func (p *Probe) TakeBack() { p.in.Add(1) }

// MadeRecord counts one record the pool made because it had none.
func (p *Probe) MadeRecord() { p.recs.Add(1) }

// MadeBin counts one bin the pool made to take records back in.
func (p *Probe) MadeBin() { p.bins.Add(1) }

// Made returns the records and the bins the pool has made so far. Under the
// race detector sync.Pool drops a quarter of what it is given, so the pool
// makes some at random; an allocation count can leave them out.
func (p *Probe) Made() (records, bins int64) { return p.recs.Load(), p.bins.Load() }

// Outstanding returns the records handed out and not yet taken back. Once
// a runtime has drained, it exceeds its value from before the runtime
// existed by exactly the records the dependence tracker's slots still hold;
// after Shutdown, and after a session's Close for the records its datums
// held, by none.
func (p *Probe) Outstanding() int64 { return p.out.Load() - p.in.Load() }

// Await waits for Outstanding to equal want and returns its last value.
// Records are handed back by the lanes that finish their tasks, a moment
// after a drain has let the waiter go, so a settled count takes a few
// polls; the wait gives up after a few seconds.
func (p *Probe) Await(want int64) int64 {
	for i := 0; i < 5000 && p.Outstanding() != want; i++ {
		time.Sleep(time.Millisecond)
	}
	return p.Outstanding()
}
