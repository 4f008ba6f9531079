package vm

import (
	"math/rand"
	"sort"
	"testing"
)

func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		var h eventHeap
		var want []event
		seq := uint64(0)
		for op := 0; op < 300; op++ {
			if len(h) > 0 && rng.Intn(3) == 0 {
				sort.Slice(want, func(i, j int) bool { return want[i].before(want[j]) })
				if got := h.pop(); got != want[0] {
					t.Fatalf("pop = %+v, want %+v", got, want[0])
				}
				want = want[1:]
				continue
			}
			seq++
			e := event{at: Time(rng.Intn(20)), seq: seq}
			h.push(e)
			want = append(want, e)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].before(want[j]) })
		for _, w := range want {
			if got := h.pop(); got != w {
				t.Fatalf("drain pop = %+v, want %+v", got, w)
			}
		}
	}
}
