package core

import (
	"errors"
	"sync"
	"testing"
)

// TestLazyDoneRace is the battery for the lazily created completion channel:
// several goroutines ask a task for Done() while another finishes it, with
// the finish placed before, during and after the first Done() call. Every
// channel handed out must be closed once the task is finished, Err() after
// <-Done() must see the outcome, and no channel may be closed twice (a
// double close panics the test binary). Meant for -race -count=10.
func TestLazyDoneRace(t *testing.T) {
	const callers = 8
	boom := errors.New("boom")
	for _, finish := range []string{"before", "during", "after"} {
		for iter := 0; iter < 100; iter++ {
			g := NewGraph()
			tk := &Task{Accesses: []Access{{Key: new(int), Mode: Out}}}
			if !g.Submit(tk) {
				t.Fatal("lone writer not ready")
			}
			g.MarkRunning(tk, 0)

			got := make([]<-chan struct{}, callers)
			var asked, start sync.WaitGroup
			asked.Add(callers)
			start.Add(1)
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					start.Wait()
					got[i] = tk.Done()
					asked.Done()
					<-got[i]
					if !tk.Finished() {
						t.Errorf("%s: Done closed on an unfinished task", finish)
					}
					if err := tk.Err(); err != boom {
						t.Errorf("%s: Err after <-Done() = %v, want %v", finish, err, boom)
					}
				}(i)
			}
			switch finish {
			case "before":
				g.Finish(tk, boom)
				start.Done()
			case "during":
				start.Done()
				g.Finish(tk, boom)
			case "after":
				start.Done()
				asked.Wait() // every caller holds its channel already
				g.Finish(tk, boom)
			}
			wg.Wait()
			for i, ch := range append(got, tk.Done()) {
				select {
				case <-ch:
				default:
					t.Fatalf("%s: channel %d still open after Finish", finish, i)
				}
			}
			if g.Unfinished() != 0 {
				t.Fatalf("%s: Unfinished = %d", finish, g.Unfinished())
			}
		}
	}
}

// TestDoneNeverAskedCostsNothing pins the point of the laziness: a task
// nobody selects on goes through Submit and Finish without a channel.
func TestDoneNeverAskedCostsNothing(t *testing.T) {
	g := NewGraph()
	tk := &Task{Accesses: []Access{{Key: new(int), Mode: Out}}}
	g.Submit(tk)
	g.MarkRunning(tk, 0)
	g.Finish(tk, nil)
	if tk.done != nil {
		t.Fatal("Finish created a completion channel nobody asked for")
	}
	select {
	case <-tk.Done():
	default:
		t.Fatal("Done() of a finished task is not closed")
	}
}
