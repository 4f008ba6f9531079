package streamcluster

import (
	"testing"

	"ompssgo/internal/obs"
	"ompssgo/machine"
	"ompssgo/ompss"
	"ompssgo/pthread"
)

func TestSolutionOpensFacilities(t *testing.T) {
	in := New(Small())
	p := in.problem()
	s := p.NewState()
	for s.Limit < p.N {
		s.AbsorbChunk()
	}
	if len(s.Open) < 2 {
		t.Fatalf("only %d facilities for clustered data", len(s.Open))
	}
	if s.TotalCost() <= 0 {
		t.Fatal("non-positive solution cost")
	}
}

func TestDeterministicAcrossInstances(t *testing.T) {
	if New(Small()).RunSeq() != New(Small()).RunSeq() {
		t.Fatal("sequential run not deterministic")
	}
}

func TestNameAndClass(t *testing.T) {
	in := New(Small())
	if in.Name() != "streamcluster" {
		t.Fatalf("name: %s", in.Name())
	}
}

// prescanTasks runs RunOmpSs on the simulated machine with a recorder
// attached and returns its checksum and the number of prescan tasks.
func prescanTasks(t *testing.T, in *Instance, cores int) (uint64, int) {
	t.Helper()
	rec := obs.NewRecorder()
	var got uint64
	if _, err := ompss.RunSim(machine.Paper(cores), func(rt *ompss.Runtime) { got = in.RunOmpSs(rt) },
		ompss.Observe(rec)); err != nil {
		t.Fatalf("sim ompss p%d: %v", cores, err)
	}
	for _, l := range obs.Analyze(rec.Snapshot()).ByLabel {
		if l.Label == "prescan" {
			return got, l.Count
		}
	}
	return got, 0
}

// TestSplitPrescanMatchesSeq runs both parallel variants on a workload whose
// later chunks cross the split threshold, natively and simulated, and checks
// every result against RunSeq; the split must actually happen there (two
// chunks or more), and never at Small.
func TestSplitPrescanMatchesSeq(t *testing.T) {
	in := New(Workload{N: 8192, Dim: 16, ChunkSize: 2048, FacilityCost: 2000, Candidates: 3, Seed: 3, EvalChunk: 256})
	want := in.RunSeq()

	for _, workers := range []int{1, 2, 4} {
		rt := ompss.New(ompss.Workers(workers))
		got := in.RunOmpSs(rt)
		rt.Shutdown()
		if got != want {
			t.Errorf("native ompss(%d) = %#x, want %#x", workers, got, want)
		}
	}
	for _, threads := range []int{1, 2, 4} {
		if got := in.RunPthreads(pthread.Native(threads).Main()); got != want {
			t.Errorf("native pthreads(%d) = %#x, want %#x", threads, got, want)
		}
	}
	var simP uint64
	if _, err := pthread.RunSim(machine.Paper(8), 8, func(m *pthread.Thread) { simP = in.RunPthreads(m) }); err != nil {
		t.Fatalf("sim pthreads: %v", err)
	}
	if simP != want {
		t.Errorf("sim pthreads p8 = %#x, want %#x", simP, want)
	}
	for _, cores := range []int{1, 8} {
		got, n := prescanTasks(t, in, cores)
		if got != want {
			t.Errorf("sim ompss p%d = %#x, want %#x", cores, got, want)
		}
		if least := 2 * in.W.ChunkSize / in.W.EvalChunk; n < least {
			t.Errorf("sim ompss p%d spawned %d prescan tasks, want at least %d (two split chunks)", cores, n, least)
		}
	}

	if _, n := prescanTasks(t, New(Small()), 8); n != 0 {
		t.Errorf("Small spawned %d prescan tasks, want none", n)
	}
}
