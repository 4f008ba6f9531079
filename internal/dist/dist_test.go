package dist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestMain is the re-exec hook: a child process spawned by a coordinator
// sees the dist environment variables and diverts into the worker loop
// before any test runs.
func TestMain(m *testing.M) {
	MaybeWorker()
	os.Exit(m.Run())
}

// The test kernels, registered at init so coordinator and spawned worker
// processes (same binary) agree on them.
func init() {
	RegisterKernel("test.fill", func(args []byte, in, out [][]byte) error {
		for i := range out[0] {
			out[0][i] = args[0]
		}
		return nil
	})
	add := func(args []byte, in, out [][]byte) error {
		for i := range out[0] {
			out[0][i] = in[0][i] + in[1][i]
		}
		return nil
	}
	inc := func(args []byte, in, out [][]byte) error {
		// InOut: out[0] arrives seeded with the read version.
		for i := range out[0] {
			out[0][i]++
		}
		return nil
	}
	// lens reports what the kernel was handed: out[0][i] = 1 + len(in[i]),
	// so a delivered zero-length In reads 1 and an undelivered one 0.
	RegisterKernel("test.lens", func(args []byte, in, out [][]byte) error {
		for i := 0; i < len(in) && i < len(out[0]); i++ {
			out[0][i] = 1 + byte(len(in[i]))
		}
		return nil
	})
	RegisterKernel("test.add", add)
	RegisterKernel("test.inc", inc)
	// The gated kernels are held back until the file named by args exists
	// (openGate): the test, not a sleep, decides how long the worker
	// running one stays busy. A gate that is never opened holds the kernel
	// until its worker is killed.
	gated := func(k KernelFunc) KernelFunc {
		return func(args []byte, in, out [][]byte) error {
			if err := awaitGate(string(args)); err != nil {
				return err
			}
			return k(nil, in, out)
		}
	}
	RegisterKernel("test.gated-add", gated(add))
	RegisterKernel("test.gated-inc", gated(inc))
	RegisterKernel("test.fail", func(args []byte, in, out [][]byte) error {
		return fmt.Errorf("deliberate failure")
	})
	RegisterKernel("test.panic", func(args []byte, in, out [][]byte) error {
		panic("deliberate panic")
	})
}

// newGate names a gate file for the test.gated-* kernels; it starts closed.
func newGate(t *testing.T) []byte {
	return []byte(filepath.Join(t.TempDir(), "gate"))
}

func openGate(gate []byte) error { return os.WriteFile(string(gate), nil, 0o600) }

// awaitGate polls (worker side) until the gate file exists.
func awaitGate(path string) error {
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := os.Stat(path); err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gate %s never opened", path)
		}
	}
}

func TestDistBasic(t *testing.T) {
	const n = 1 << 10
	var final []byte
	stats, err := Run(1, func(rt *RT) error {
		d := rt.Register(make([]byte, n))
		rt.Task("test.fill", []byte{7}, Out(d))
		rt.Task("test.inc", nil, InOut(d))
		rt.Task("test.inc", nil, InOut(d))
		if err := rt.Taskwait(); err != nil {
			return err
		}
		final = rt.Read(d)
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, b := range final {
		if b != 9 {
			t.Fatalf("final[%d] = %d, want 9", i, b)
		}
	}
	if stats.Tasks != 3 || stats.Failed != 0 || stats.Skipped != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// fill produces d on the worker, so the inc chain's reads are cache
	// hits: nothing ever ships TO the worker, and all three outputs ride
	// home (producer-side caching at work).
	if stats.BytesToWorkers != 0 || stats.BytesFromWorkers != 3*n || stats.TransfersAvoided != 2 {
		t.Fatalf("transfer accounting off: %+v", stats)
	}
}

// TestDistZeroLengthDatum: a 0-byte datum is a datum. Shipped as an In, as
// an InOut seed and produced as an Out, in frames of their own and as links
// of a chain, it must reach the kernel as an empty slice — the wire says
// "shipped, zero bytes", which is not "already in your cache".
func TestDistZeroLengthDatum(t *testing.T) {
	var single, chained []byte
	stats, err := Run(1, func(rt *RT) error {
		full := rt.Register([]byte{1, 2, 3})
		zIn, zSeed, zOut := rt.Register([]byte{}), rt.Register([]byte{}), rt.Register([]byte{})
		res := rt.Register(make([]byte, 2))
		rt.Task("test.lens", nil, In(zIn), In(full), Out(res))
		rt.Task("test.inc", nil, InOut(zSeed))
		rt.Task("test.fill", []byte{9}, Out(zOut))
		if err := rt.Taskwait(); err != nil {
			return err
		}
		single = rt.Read(res)
		for _, z := range []*Datum{zIn, zSeed, zOut} {
			if b := rt.Read(z); len(b) != 0 {
				return fmt.Errorf("zero-length datum read back as %d bytes", len(b))
			}
		}

		// The gated link holds the worker until the three behind it are
		// wired: lens (a fresh 0-byte In shipped with it, a 0-byte Out)
		// heads a frame, inc (0-byte seed produced in the frame) and lens
		// (0-byte In produced in the frame) ride along.
		hold := rt.Register(make([]byte, 8))
		zFresh, zLink := rt.Register([]byte{}), rt.Register([]byte{})
		res2 := rt.Register(make([]byte, 1))
		gate := newGate(t)
		rt.Task("test.gated-inc", gate, InOut(hold))
		rt.Task("test.lens", nil, In(hold), In(zFresh), Out(zLink))
		rt.Task("test.inc", nil, InOut(zLink))
		rt.Task("test.lens", nil, In(zLink), Out(res2))
		if err := openGate(gate); err != nil {
			return err
		}
		if err := rt.Taskwait(); err != nil {
			return err
		}
		chained = rt.Read(res2)
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(single) != 2 || single[0] != 1 || single[1] != 4 {
		t.Fatalf("single lens saw %v, want [1 4] (a delivered 0-byte In and a 3-byte one)", single)
	}
	if len(chained) != 1 || chained[0] != 1 {
		t.Fatalf("chained lens saw %v, want [1]", chained)
	}
	if stats.Failed != 0 || stats.Skipped != 0 || stats.Tasks != 7 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Chains < 1 || stats.ChainedTasks < 2 {
		t.Fatalf("the 0-byte links did not chain: %+v", stats)
	}
}

// TestDistTwoWorkersMatchesLocal is the two-process proof in miniature:
// independent chains (they can land on different workers) plus a joining
// add, with the result compared byte-for-byte against the same
// computation done locally.
func TestDistTwoWorkersMatchesLocal(t *testing.T) {
	const n = 4 << 10
	var got []byte
	stats, err := Run(2, func(rt *RT) error {
		a := rt.Register(make([]byte, n))
		b := rt.Register(make([]byte, n))
		sum := rt.Register(make([]byte, n))
		rt.Task("test.fill", []byte{10}, Out(a))
		rt.Task("test.fill", []byte{20}, Out(b))
		for i := 0; i < 3; i++ {
			rt.Task("test.inc", nil, InOut(a))
			rt.Task("test.inc", nil, InOut(b))
		}
		rt.Task("test.add", nil, In(a), In(b), Out(sum))
		if err := rt.Taskwait(); err != nil {
			return err
		}
		got = rt.Read(sum)
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Workers != 2 {
		t.Fatalf("workers = %d", stats.Workers)
	}
	for i, b := range got {
		if b != 36 { // (10+3) + (20+3)
			t.Fatalf("sum[%d] = %d, want 36", i, b)
		}
	}
}

// TestDistCacheHits: many readers of one version on one worker must ship
// the bytes once and hit the version cache for the rest.
func TestDistCacheHits(t *testing.T) {
	const n = 1 << 12
	const readers = 8
	stats, err := Run(1, func(rt *RT) error {
		src := rt.Register(make([]byte, n))
		rt.Task("test.fill", []byte{1}, Out(src))
		for i := 0; i < readers; i++ {
			dst := rt.Register(make([]byte, n))
			rt.Task("test.add", nil, In(src), In(src), Out(dst))
		}
		return rt.Taskwait()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The first In(src) of the first reader ships src's version; every
	// later occurrence (including the second In(src) of the same task)
	// resolves from the worker's version cache.
	if stats.TransfersAvoided < readers-1 {
		t.Fatalf("TransfersAvoided = %d, want >= %d (stats %+v)",
			stats.TransfersAvoided, readers-1, stats)
	}
	if stats.BytesAvoided < int64(readers-1)*n {
		t.Fatalf("BytesAvoided = %d", stats.BytesAvoided)
	}
}

// TestDistEviction: a cache budget smaller than the working set forces
// coordinator-directed evictions; correctness must be unaffected (evicted
// versions re-ship on next use).
func TestDistEviction(t *testing.T) {
	const n = 1 << 12
	var got byte
	stats, err := Run(1, func(rt *RT) error {
		a := rt.Register(make([]byte, n))
		b := rt.Register(make([]byte, n))
		c := rt.Register(make([]byte, n))
		rt.Task("test.fill", []byte{3}, Out(a))
		rt.Task("test.fill", []byte{4}, Out(b))
		// Alternate readers so a and b keep displacing each other.
		for i := 0; i < 4; i++ {
			rt.Task("test.add", nil, In(a), In(b), Out(c))
		}
		if err := rt.Taskwait(); err != nil {
			return err
		}
		got = rt.Read(c)[0]
		return nil
	}, CacheBytes(2*n+n/2)) // room for ~2 of the 3+ live versions
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 7 {
		t.Fatalf("c[0] = %d, want 7", got)
	}
	if stats.Evictions == 0 {
		t.Fatalf("expected evictions under a tight budget: %+v", stats)
	}
}

func TestDistRemoteErrorSkipsDependents(t *testing.T) {
	var hFail, hDep, hOK *Handle
	_, err := Run(1, func(rt *RT) error {
		d := rt.Register(make([]byte, 64))
		e := rt.Register(make([]byte, 64))
		hFail = rt.Task("test.fail", nil, Out(d))
		hDep = rt.Task("test.inc", nil, InOut(d))
		hOK = rt.Task("test.fill", []byte{5}, Out(e))
		rt.Taskwait() // error expected; inspected via handles below
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var re *RemoteError
	if !errors.As(hFail.Err(), &re) || re.Kernel != "test.fail" {
		t.Fatalf("failing task error = %v", hFail.Err())
	}
	var se *SkipError
	if !errors.As(hDep.Err(), &se) || !hDep.Skipped() {
		t.Fatalf("dependent error = %v, skipped = %v", hDep.Err(), hDep.Skipped())
	}
	if hOK.Err() != nil || hOK.Skipped() {
		t.Fatalf("independent task affected: %v", hOK.Err())
	}
}

func TestDistPanicBecomesRemoteError(t *testing.T) {
	var h *Handle
	_, err := Run(1, func(rt *RT) error {
		d := rt.Register(make([]byte, 8))
		h = rt.Task("test.panic", nil, Out(d))
		rt.Taskwait()
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var re *RemoteError
	if !errors.As(h.Err(), &re) || !re.Panic {
		t.Fatalf("panic not surfaced as RemoteError{Panic}: %v", h.Err())
	}
}

// TestDistWorkerKillConfinement is the crash-confinement proof: killing
// one worker mid-task fails that task with WorkerLost and skips its
// dependents, while an independent chain on the surviving worker
// completes with the right bytes.
func TestDistWorkerKillConfinement(t *testing.T) {
	const n = 1 << 10
	var hVictim, hDep *Handle
	var survivor []byte
	stats, err := Run(2, func(rt *RT) error {
		// First dispatch lands on worker 0 (all affinity scores are zero
		// and slot order breaks ties); the kill hook fires right after
		// that send, while the kernel waits on a gate nobody opens.
		dv := rt.Register(make([]byte, n))
		hVictim = rt.Task("test.gated-inc", newGate(t), InOut(dv))
		hDep = rt.Task("test.inc", nil, InOut(dv))

		ds := rt.Register(make([]byte, n))
		rt.Task("test.fill", []byte{40}, Out(ds))
		rt.Task("test.inc", nil, InOut(ds))
		rt.Task("test.inc", nil, InOut(ds))
		rt.Taskwait() // first failure is the WorkerLost; handles below
		survivor = rt.Read(ds)
		return nil
	}, KillWorkerAfter(0, 1))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var wl *WorkerLost
	if !errors.As(hVictim.Err(), &wl) || wl.Worker != 0 {
		t.Fatalf("victim error = %v", hVictim.Err())
	}
	var se *SkipError
	if !errors.As(hDep.Err(), &se) || !errors.As(hDep.Err(), &wl) {
		t.Fatalf("dependent error = %v", hDep.Err())
	}
	for i, b := range survivor {
		if b != 42 {
			t.Fatalf("survivor[%d] = %d, want 42", i, b)
		}
	}
	if stats.WorkersLost != 1 {
		t.Fatalf("WorkersLost = %d", stats.WorkersLost)
	}
	if got := stats.PerWorker[0]; !got.Lost {
		t.Fatalf("worker 0 not marked lost: %+v", got)
	}
}

// TestDistAllWorkersLost: with every worker gone, queued tasks fail with
// ErrNoWorkers instead of hanging the program.
func TestDistAllWorkersLost(t *testing.T) {
	var hLate *Handle
	_, err := Run(1, func(rt *RT) error {
		d := rt.Register(make([]byte, 64))
		rt.Task("test.gated-inc", newGate(t), InOut(d)) // never opened: killed mid-task
		hLate = rt.Task("test.inc", nil, InOut(d))
		rt.Taskwait()
		return nil
	}, KillWorkerAfter(0, 1))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The dependent either skipped behind the WorkerLost failure or — had
	// it been independent — would fail ErrNoWorkers; either way it must
	// resolve, not hang, and carry the upstream loss.
	var wl *WorkerLost
	if hLate.Err() == nil || !(errors.As(hLate.Err(), &wl) || errors.Is(hLate.Err(), ErrNoWorkers)) {
		t.Fatalf("late task error = %v", hLate.Err())
	}
}

func TestRunRejectsZeroWorkers(t *testing.T) {
	if _, err := Run(0, func(rt *RT) error { return nil }); err == nil {
		t.Fatal("Run(0) accepted")
	}
}

// TestDistHandleErrWaitsOnLazyDone covers the one consumer of core's
// completion channel outside ompss.Handle: dist's Handle.Err blocks on
// <-t.Done(), which is created on first use. Several goroutines wait on a
// gated task (and on its dependent, which the failure skips) before the
// worker finishes it, others ask only afterwards; all see the outcome.
func TestDistHandleErrWaitsOnLazyDone(t *testing.T) {
	gate := newGate(t)
	_, err := Run(1, func(rt *RT) error {
		d := rt.Register(make([]byte, 64))
		held := rt.Task("test.gated-inc", gate, InOut(d))
		fail := rt.Task("test.fail", nil, InOut(d))
		dep := rt.Task("test.inc", nil, InOut(d))

		check := func() {
			if err := held.Err(); err != nil {
				t.Errorf("gated task: %v", err)
			}
			var re *RemoteError
			if err := fail.Err(); !errors.As(err, &re) {
				t.Errorf("failing task: %v, want a RemoteError", err)
			}
			var se *SkipError
			if err := dep.Err(); !errors.As(err, &se) || !dep.Skipped() {
				t.Errorf("dependent: %v, want a SkipError", err)
			}
		}
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				check() // blocks until the gate opens
			}()
		}
		if err := openGate(gate); err != nil {
			return err
		}
		wg.Wait()
		rt.Taskwait() // the failure is expected; the handles carry it
		check()       // channels asked for after the finish are closed too
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
