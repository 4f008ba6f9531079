package suite

import (
	"testing"

	"ompssgo/machine"
	"ompssgo/ompss"
	"ompssgo/pthread"
)

// TestAllVariantsComputeIdenticalResults is the suite's central contract:
// for every benchmark, the sequential, Pthreads, and OmpSs variants — native
// and simulated, across thread counts — produce bit-identical results.
func TestAllVariantsComputeIdenticalResults(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			in, err := New(name, Small)
			if err != nil {
				t.Fatal(err)
			}
			want := in.RunSeq()

			for _, threads := range []int{1, 3} {
				api := pthread.Native(threads)
				if got := in.RunPthreads(api.Main()); got != want {
					t.Errorf("native pthreads(%d) = %#x, want %#x", threads, got, want)
				}
			}
			for _, workers := range []int{1, 3} {
				rt := ompss.New(ompss.Workers(workers))
				got := in.RunOmpSs(rt)
				rt.Shutdown()
				if got != want {
					t.Errorf("native ompss(%d) = %#x, want %#x", workers, got, want)
				}
			}

			var simP uint64
			if _, err := pthread.RunSim(machine.Paper(4), 4, func(m *pthread.Thread) {
				simP = in.RunPthreads(m)
			}); err != nil {
				t.Fatalf("sim pthreads: %v", err)
			}
			if simP != want {
				t.Errorf("sim pthreads = %#x, want %#x", simP, want)
			}

			var simO uint64
			if _, err := ompss.RunSim(machine.Paper(4), func(rt *ompss.Runtime) {
				simO = in.RunOmpSs(rt)
			}); err != nil {
				t.Fatalf("sim ompss: %v", err)
			}
			if simO != want {
				t.Errorf("sim ompss = %#x, want %#x", simO, want)
			}
		})
	}
}

// TestSeqDeterministic double-runs the sequential variants.
func TestSeqDeterministic(t *testing.T) {
	for _, name := range Names() {
		a, err := New(name, Small)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := New(name, Small)
		if a.RunSeq() != b.RunSeq() {
			t.Errorf("%s: sequential variant not deterministic", name)
		}
	}
}

// TestSimMakespansPositive sanity-checks that simulated runs accumulate
// virtual time in both models.
func TestSimMakespansPositive(t *testing.T) {
	in, err := New("c-ray", Small)
	if err != nil {
		t.Fatal(err)
	}
	stP, err := pthread.RunSim(machine.Paper(8), 8, func(m *pthread.Thread) { in.RunPthreads(m) })
	if err != nil {
		t.Fatal(err)
	}
	stO, err := ompss.RunSim(machine.Paper(8), func(rt *ompss.Runtime) { in.RunOmpSs(rt) })
	if err != nil {
		t.Fatal(err)
	}
	if stP.Makespan <= 0 || stO.Makespan <= 0 {
		t.Fatalf("zero makespans: pthreads %v, ompss %v", stP.Makespan, stO.Makespan)
	}
	if stO.Tasks == 0 {
		t.Fatal("ompss sim executed no tasks")
	}
}

// TestRecycledInstanceCannotMaskASkippedTask pins the reuse contract of the
// OmpSs variants that keep their buffers on the instance (rotate, rgbcmy,
// h264dec). After a healthy run, the same instance runs in a session
// cancelled before the kernel spawns, so every task is released without
// running: that run must not report the reference checksum — the reused
// buffers start zeroed, not holding the previous answer — and h264dec may
// instead panic on its failed pipeline. The run after it must report the
// reference again: the reset also frees what the skipped run left held.
func TestRecycledInstanceCannotMaskASkippedTask(t *testing.T) {
	rt := ompss.New(ompss.Workers(2))
	defer rt.Shutdown()
	for _, name := range []string{"rotate", "rgbcmy", "h264dec"} {
		t.Run(name, func(t *testing.T) {
			in, err := New(name, Small)
			if err != nil {
				t.Fatal(err)
			}
			want := in.RunSeq()
			run := func(cancelled bool) (sum uint64, closeErr error, panicked any) {
				sess := rt.NewSession()
				defer func() { closeErr = sess.Close() }()
				defer func() { panicked = recover() }()
				if cancelled {
					sess.Cancel(nil)
				}
				return in.RunOmpSs(sess), nil, nil
			}
			for i, cancelled := range []bool{false, true, false} {
				sum, err, p := run(cancelled)
				switch {
				case cancelled && p == nil && sum == want:
					t.Fatalf("run %d: every task skipped, yet the checksum is the reference %#x", i, want)
				case cancelled && (p == nil || name == "h264dec"):
				case cancelled:
					t.Fatalf("run %d: cancelled run panicked: %v", i, p)
				case p != nil || err != nil:
					t.Fatalf("run %d: healthy run panicked %v, closed with %v", i, p, err)
				case sum != want:
					t.Fatalf("run %d: checksum %#x, reference %#x", i, sum, want)
				}
			}
		})
	}
}
