package kmeans

import (
	"testing"

	kern "ompssgo/internal/kernels/kmeans"
	"ompssgo/internal/media"
)

func TestClusteringQuality(t *testing.T) {
	w := Small()
	in := New(w)
	s := in.newState()
	for it := 0; it < w.MaxIter; it++ {
		for c, r := range s.ranges {
			s.partials[c].Reset()
			in.prob.AssignRange(s.centroids, s.assign, s.partials[c], r[0], r[1])
		}
		if in.reduce(s) == 0 {
			break
		}
	}
	// Every cluster populated; objective far better than one centroid.
	counts := make([]int, w.K)
	for _, a := range s.assign {
		if a < 0 {
			t.Fatal("unassigned point")
		}
		counts[a]++
	}
	for c, n := range counts {
		if n == 0 {
			t.Fatalf("cluster %d empty", c)
		}
	}
	pts, _ := media.Points(w.N, w.Dim, w.K, w.Seed)
	single := &kern.Problem{Points: pts, N: w.N, Dim: w.Dim, K: 1}
	c1, a1, _ := single.Run(50)
	if in.prob.Cost(s.centroids, s.assign) > single.Cost(c1, a1)/2 {
		t.Fatal("clustering barely better than a single centroid")
	}
}

func TestChunkStructureIndependentOfThreads(t *testing.T) {
	// The whole point of fixed chunks: the result must not change when
	// only the consumer (thread count) changes — already covered by the
	// integration suite; here we pin that the chunk list itself is a pure
	// function of the workload.
	a, b := New(Small()), New(Small())
	sa, sb := a.newState(), b.newState()
	if len(sa.ranges) != len(sb.ranges) {
		t.Fatal("chunking not deterministic")
	}
}

func TestNameAndClass(t *testing.T) {
	in := New(Small())
	if in.Name() != "kmeans" {
		t.Fatalf("name: %s", in.Name())
	}
}
