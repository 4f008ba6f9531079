package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestDequeOwnerLIFOStealFIFO checks the sequential contract: the owner
// pops newest-first, thieves take oldest-first.
func TestDequeOwnerLIFOStealFIFO(t *testing.T) {
	var d wsDeque
	d.init()
	ts := make([]*Task, 4)
	for i := range ts {
		ts[i] = &Task{ID: uint64(i)}
		d.pushBottom(ts[i])
	}
	if got, _ := d.steal(); got != ts[0] {
		t.Fatalf("steal got %v, want oldest (0)", got.ID)
	}
	if got := d.popBottom(); got != ts[3] {
		t.Fatalf("popBottom got %v, want newest (3)", got.ID)
	}
	if got := d.popBottom(); got != ts[2] {
		t.Fatalf("popBottom got %v, want 2", got.ID)
	}
	if got := d.popBottom(); got != ts[1] {
		t.Fatalf("popBottom got %v, want 1", got.ID)
	}
	if got := d.popBottom(); got != nil {
		t.Fatalf("popBottom on empty got %v", got.ID)
	}
	if got, retry := d.steal(); got != nil || retry {
		t.Fatal("steal on empty should report empty")
	}
}

// TestDequeGrowth pushes far past the initial ring size.
func TestDequeGrowth(t *testing.T) {
	var d wsDeque
	d.init()
	const n = 10000
	for i := 0; i < n; i++ {
		d.pushBottom(&Task{ID: uint64(i)})
	}
	if d.size() != n {
		t.Fatalf("size=%d, want %d", d.size(), n)
	}
	for i := n - 1; i >= 0; i-- {
		got := d.popBottom()
		if got == nil || got.ID != uint64(i) {
			t.Fatalf("pop %d got %v", i, got)
		}
	}
}

// TestDequeConcurrentStealExactlyOnce is the linearizability property the
// executor depends on: with one owner popping and many thieves stealing,
// every pushed task is consumed exactly once. Run under -race in CI.
func TestDequeConcurrentStealExactlyOnce(t *testing.T) {
	const (
		nTasks   = 20000
		nThieves = 4
	)
	var d wsDeque
	d.init()
	taken := make([]atomic.Int32, nTasks)
	var consumed atomic.Int64

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < nThieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				tk, retry := d.steal()
				if tk != nil {
					taken[tk.ID].Add(1)
					consumed.Add(1)
					continue
				}
				if !retry {
					select {
					case <-stop:
						return
					default:
					}
				}
			}
		}()
	}
	// Owner: interleave pushes with occasional pops.
	for i := 0; i < nTasks; i++ {
		d.pushBottom(&Task{ID: uint64(i)})
		if i%3 == 0 {
			if tk := d.popBottom(); tk != nil {
				taken[tk.ID].Add(1)
				consumed.Add(1)
			}
		}
	}
	for consumed.Load() < nTasks {
		if tk := d.popBottom(); tk != nil {
			taken[tk.ID].Add(1)
			consumed.Add(1)
		}
	}
	close(stop)
	wg.Wait()
	for id := range taken {
		if n := taken[id].Load(); n != 1 {
			t.Fatalf("task %d consumed %d times", id, n)
		}
	}
}
