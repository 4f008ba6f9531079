package ompss_test

// Concurrent-session isolation fuzz: N seeded fuzz programs (the same
// generator the schedule fuzz uses) run simultaneously on ONE runtime, each
// inside its own session, alongside a poison session whose head task fails
// (triggering a skip cascade) and a session cancelled mid-flight.
// The isolation contract under test: a session's failure or cancellation
// must never skip, reorder, or corrupt another session's tasks. Each
// healthy program must drain to the sequential model with zero
// happens-before violations (plain-load checks — CI's race job amplifies
// any missing edge into a detected data race) and close with
// Skipped == Failed == 0; the poison and cancelled sessions must account
// for exactly their own casualties.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"ompssgo/machine"
	"ompssgo/ompss"
)

// sessionFuzzSchedules is the native schedule sweep for the concurrent leg:
// worker counts around the contention knee crossed with both wait modes
// (Blocking parks idle workers — the server's configuration — and Polling
// spins; the session Close drain takes a different path in each), plus two
// legs under a runtime-level run-ahead window of 1 and 2 tasks, where every
// session master executes foreign sessions' tasks inside its own spawns.
func sessionFuzzSchedules() []fuzzSchedule {
	var out []fuzzSchedule
	for _, w := range []int{1, 2, 4} {
		for _, wait := range []ompss.WaitMode{ompss.Polling, ompss.Blocking} {
			out = append(out, fuzzSchedule{
				name:   fmt.Sprintf("native/w%d-%s", w, waitName(wait)),
				native: true,
				opts:   []ompss.Option{ompss.Workers(w), ompss.Wait(wait)},
			})
		}
	}
	for i, wait := range []ompss.WaitMode{ompss.Polling, ompss.Blocking} {
		window := i + 1
		out = append(out, fuzzSchedule{
			name:   fmt.Sprintf("native/w2-%s-window%d", waitName(wait), window),
			native: true,
			opts:   []ompss.Option{ompss.Workers(2), ompss.Wait(wait), ompss.MaxInFlight(window)},
		})
	}
	return out
}

// runPoisonSession drives one session through a deliberate failure cascade:
// a failing head write and nDeps dependent InOut tasks that must all skip.
// The drain goes through TaskwaitCtx so the head is guaranteed to have RUN
// and failed (Close alone could cancel it before execution) and the round's
// failure is captured. Returns the session's skipped count and that error.
func runPoisonSession(rt *ompss.Runtime, nDeps int) (uint64, error) {
	s := rt.NewSession(ompss.Tenant(1))
	var cell int
	s.Master().Go(func(*ompss.TC) error { return fmt.Errorf("poison head") }, ompss.InOut(&cell))
	for i := 0; i < nDeps; i++ {
		s.Task(func(*ompss.TC) { cell++ }, ompss.InOut(&cell))
	}
	err := s.Master().TaskwaitCtx(context.Background())
	skipped := s.Stats().Skipped
	if cerr := s.Close(); cerr != nil {
		return skipped, fmt.Errorf("clean close after consumed round: %w", cerr)
	}
	return skipped, err
}

// runCancelledSession drives one session cancelled mid-flight: a head task
// gated on a channel that only opens after Cancel fires, with an nDeps-long
// InOut chain queued behind it. The chain must skip entirely; the head
// itself races the cancellation (skips if no thread had picked it up yet),
// so the skipped count is nDeps or nDeps+1. The scenario is spawned from
// inside a task of the session: its head waits for its creator's later
// statements, which only a creator inside a task body may rely on — one
// outside may be made to execute the head by the run-ahead window. Returns
// the skipped count plus the drain's error.
func runCancelledSession(rt *ompss.Runtime, nDeps int) (uint64, error) {
	s := rt.NewSession()
	var cell int
	var err error
	s.Task(func(tc *ompss.TC) {
		release := make(chan struct{})
		tc.Task(func(*ompss.TC) { <-release }, ompss.InOut(&cell))
		for i := 0; i < nDeps; i++ {
			tc.Task(func(*ompss.TC) { cell++ }, ompss.InOut(&cell))
		}
		s.Cancel(context.Canceled)
		close(release)
		err = tc.TaskwaitCtx(context.Background())
	})
	s.Taskwait()
	skipped := s.Stats().Skipped
	if cerr := s.Close(); cerr != nil {
		return skipped, fmt.Errorf("clean close after consumed round: %w", cerr)
	}
	return skipped, err
}

// TestSessionFuzzNative runs the concurrent-session battery on the native
// backend: per schedule, four healthy fuzz sessions driven from their own
// goroutines (the server's request pattern) race against a poison session
// and a cancelled session on the same runtime.
func TestSessionFuzzNative(t *testing.T) {
	const healthy = 4
	const casualties = 6
	seeds := []int64{1, 0x5eed}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, baseSeed := range seeds {
		for _, sc := range sessionFuzzSchedules() {
			t.Run(fmt.Sprintf("seed%d/%s", baseSeed, sc.name), func(t *testing.T) {
				rt := ompss.New(sc.opts...)
				defer rt.Shutdown()

				var wg sync.WaitGroup
				for i := 0; i < healthy; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						p := genProg(baseSeed+int64(i)*101, 1<<30)
						cells := newFuzzCells(p.nKeys)
						s := rt.NewSession(ompss.Tenant(i % 3))
						cells.run(p, s)
						cells.checkFinal(p)
						st := s.Stats()
						if err := s.Close(); err != nil {
							t.Errorf("healthy session %d: Close = %v", i, err)
						}
						cells.mu.Lock()
						violations := cells.violations
						cells.mu.Unlock()
						if len(violations) > 0 {
							t.Errorf("healthy session %d (seed %d): %d violations; first: %s",
								i, p.seed, len(violations), violations[0])
						}
						if st.Skipped != 0 || st.Failed != 0 {
							t.Errorf("healthy session %d: skipped=%d failed=%d — foreign cascade leaked in",
								i, st.Skipped, st.Failed)
						}
						if st.Finished != uint64(p.nTasks) {
							t.Errorf("healthy session %d: finished %d of %d tasks",
								i, st.Finished, p.nTasks)
						}
					}()
				}
				wg.Add(2)
				go func() {
					defer wg.Done()
					skipped, err := runPoisonSession(rt, casualties)
					if skipped != casualties {
						t.Errorf("poison session skipped %d, want %d", skipped, casualties)
					}
					if err == nil {
						t.Error("poison session Close = nil, want its own failure")
					}
				}()
				go func() {
					defer wg.Done()
					skipped, err := runCancelledSession(rt, casualties)
					if skipped < casualties || skipped > casualties+1 {
						t.Errorf("cancelled session skipped %d, want %d or %d",
							skipped, casualties, casualties+1)
					}
					if err == nil {
						t.Error("cancelled session Close = nil, want the cancel cause")
					}
				}()
				wg.Wait()
			})
		}
	}
}

// TestSessionFuzzSim runs the same isolation contract on the simulated
// backend. Virtual threads cannot be driven from real goroutines, so the
// master thread interleaves group submissions round-robin across three
// healthy sessions plus a poison session — the submission orders interleave
// in the dependence tracker exactly as concurrent clients' would — then
// drains and closes each. Each machine runs under the default run-ahead
// window (which these programs never fill) and under windows of 1 and 2
// tasks, where nearly every spawn executes some session's task first.
func TestSessionFuzzSim(t *testing.T) {
	const healthy = 3
	const casualties = 6
	type result struct {
		violations []string
		stats      ompss.SessionStats
		nTasks     int
		closeErr   error
	}
	var results [healthy]result
	var poisonSkipped uint64
	var poisonErr, poisonClose error

	type leg struct{ cores, window int }
	for _, l := range []leg{{1, 0}, {4, 0}, {1, 1}, {4, 1}, {1, 2}, {4, 2}} {
		name := fmt.Sprintf("cores=%d window=%d", l.cores, l.window)
		_, err := ompss.RunSim(machine.Paper(l.cores), func(rt *ompss.Runtime) {
			var progs [healthy]*fuzzProg
			var cells [healthy]*fuzzCells
			var sess [healthy]*ompss.Session
			var keys [healthy][]*ompss.Datum
			var next [healthy]int
			maxGroups := 0
			for i := 0; i < healthy; i++ {
				progs[i] = genProg(int64(7000+i*13), 1<<30)
				cells[i] = newFuzzCells(progs[i].nKeys)
				sess[i] = rt.NewSession(ompss.Tenant(i % 3))
				keys[i] = cells[i].registerKeys(progs[i], sess[i])
				if len(progs[i].groups) > maxGroups {
					maxGroups = len(progs[i].groups)
				}
			}
			poison := rt.NewSession()
			var pCell int
			poison.Master().Go(func(*ompss.TC) error { return fmt.Errorf("poison head") },
				ompss.InOut(&pCell))

			for g := 0; g < maxGroups; g++ {
				for i := 0; i < healthy; i++ {
					if g < len(progs[i].groups) {
						next[i] = cells[i].submitGroup(progs[i].groups[g], next[i], sess[i], keys[i])
					}
				}
				// Drip the poison chain between healthy groups so the skip
				// cascade propagates while foreign submissions are in flight.
				if g < casualties {
					poison.Task(func(*ompss.TC) { pCell++ }, ompss.InOut(&pCell))
				}
			}
			for i := 0; i < healthy; i++ {
				sess[i].Taskwait()
				cells[i].checkFinal(progs[i])
				results[i].stats = sess[i].Stats()
				results[i].nTasks = progs[i].nTasks
				results[i].closeErr = sess[i].Close()
				cells[i].mu.Lock()
				results[i].violations = cells[i].violations
				cells[i].mu.Unlock()
			}
			poisonErr = poison.Master().TaskwaitCtx(context.Background())
			poisonSkipped = poison.Stats().Skipped
			poisonClose = poison.Close()
		}, ompss.MaxInFlight(l.window))
		if err != nil {
			t.Fatalf("%s: RunSim: %v", name, err)
		}
		for i, r := range results {
			if len(r.violations) > 0 {
				t.Fatalf("%s healthy session %d: %d violations; first: %s",
					name, i, len(r.violations), r.violations[0])
			}
			if r.closeErr != nil {
				t.Fatalf("%s healthy session %d: Close = %v", name, i, r.closeErr)
			}
			if r.stats.Skipped != 0 || r.stats.Failed != 0 {
				t.Fatalf("%s healthy session %d: skipped=%d failed=%d — poison leaked in",
					name, i, r.stats.Skipped, r.stats.Failed)
			}
			if r.stats.Finished != uint64(r.nTasks) {
				t.Fatalf("%s healthy session %d: finished %d of %d",
					name, i, r.stats.Finished, r.nTasks)
			}
		}
		if poisonSkipped != casualties {
			t.Fatalf("%s: poison session skipped %d, want %d", name, poisonSkipped, casualties)
		}
		if poisonErr == nil {
			t.Fatalf("%s: poison session drained without reporting its failure", name)
		}
		if poisonClose != nil {
			t.Fatalf("%s: poison Close after consumed round = %v, want nil", name, poisonClose)
		}
	}
}
