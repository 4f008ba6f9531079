package dist

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// --- worker-side task chains ---

// TestDistChains: a linear fill→gated-inc→inc→inc dependence chain must
// reach the worker in fewer dispatch frames than tasks — the gated link
// holds its frame until the rest of the chain is submitted, so whenever a
// successor dispatches the links behind it are wired and ride along —
// while keeping the exact transfer accounting of the unchained run. (The
// gate makes chain formation deterministic: a fast head can finish before
// its successors are even submitted, legitimately leaving nothing to
// chain.)
func TestDistChains(t *testing.T) {
	const n = 1 << 10
	var final []byte
	stats, err := Run(1, func(rt *RT) error {
		d := rt.Register(make([]byte, n))
		gate := newGate(t)
		rt.Task("test.fill", []byte{7}, Out(d))
		rt.Task("test.gated-inc", gate, InOut(d))
		rt.Task("test.inc", nil, InOut(d))
		rt.Task("test.inc", nil, InOut(d))
		if err := openGate(gate); err != nil {
			return err
		}
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
		if b != 10 {
			t.Fatalf("final[%d] = %d, want 10", i, b)
		}
	}
	if stats.RoundTrips >= stats.Tasks {
		t.Fatalf("RoundTrips = %d, want < Tasks = %d (chaining inert)", stats.RoundTrips, stats.Tasks)
	}
	if stats.Chains < 1 || stats.ChainedTasks < 1 || stats.ChainDepth < 2 {
		t.Fatalf("chain stats off: %+v", stats)
	}
	if stats.BytesToWorkers != 0 || stats.BytesFromWorkers != 4*n || stats.TransfersAvoided != 3 {
		t.Fatalf("transfer accounting off under chaining: %+v", stats)
	}
}

// TestDistChainLimitDisables: chainLimit below 2 must restore one frame
// per task.
func TestDistChainLimitDisables(t *testing.T) {
	stats, err := Run(1, func(rt *RT) error {
		d := rt.Register(make([]byte, 64))
		rt.Task("test.fill", []byte{1}, Out(d))
		rt.Task("test.inc", nil, InOut(d))
		rt.Task("test.inc", nil, InOut(d))
		return rt.Taskwait()
	}, chainLimit(1))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Chains != 0 || stats.RoundTrips != stats.Tasks {
		t.Fatalf("chainLimit(1) did not disable chaining: %+v", stats)
	}
}

// TestDistChainAbort: a failing link aborts the rest of its chain on the
// worker; the coordinator resolves the unexecuted links as skipped, with
// the failure reaching them along the chain's own dependence edges.
func TestDistChainAbort(t *testing.T) {
	var hFail, hDep *Handle
	stats, err := Run(1, func(rt *RT) error {
		d := rt.Register(make([]byte, 64))
		rt.Task("test.fill", []byte{1}, Out(d))
		// The gated link pins a frame until fail+inc are wired, so a chain
		// forms at the next dispatch.
		gate := newGate(t)
		rt.Task("test.gated-inc", gate, InOut(d))
		hFail = rt.Task("test.fail", nil, InOut(d))
		hDep = rt.Task("test.inc", nil, InOut(d))
		if err := openGate(gate); err != nil {
			return err
		}
		rt.Taskwait() // error expected; inspected via handles below
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Chains < 1 {
		t.Fatalf("expected the fail+inc pair to chain: %+v", stats)
	}
	var re *remoteError
	if !errors.As(hFail.err(), &re) || re.Kernel != "test.fail" {
		t.Fatalf("failing link error = %v", hFail.err())
	}
	var se *skipError
	if !errors.As(hDep.err(), &se) || !hDep.skipped() {
		t.Fatalf("aborted link error = %v, skipped = %v", hDep.err(), hDep.skipped())
	}
	if stats.Skipped != 1 || stats.Failed != 1 {
		t.Fatalf("abort accounting off: %+v", stats)
	}
}

// TestDistWorkerLostMidChain: killing a worker holding a whole chain must
// fail every queued link with workerLostError, not just the first.
func TestDistWorkerLostMidChain(t *testing.T) {
	var h1, h2 *Handle
	_, err := Run(2, func(rt *RT) error {
		d := rt.Register(make([]byte, 64))
		// Frame 1 to worker 0 holds the lane until h1+h2 are both wired, so
		// they ride frame 2 as one chain; h1's own gate is never opened, so
		// the kill after frame 2 lands while it runs.
		gate := newGate(t)
		rt.Task("test.gated-inc", gate, InOut(d))
		h1 = rt.Task("test.gated-inc", newGate(t), InOut(d))
		h2 = rt.Task("test.inc", nil, InOut(d)) // chains behind h1: frame 2
		if err := openGate(gate); err != nil {
			return err
		}
		rt.Taskwait()
		return nil
	}, killWorkerAfter(0, 2))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var wl *workerLostError
	if !errors.As(h1.err(), &wl) {
		t.Fatalf("first link error = %v", h1.err())
	}
	if !errors.As(h2.err(), &wl) {
		t.Fatalf("chained link error = %v", h2.err())
	}
}

// --- reads the destination worker lacks ---

// TestDistPeerHeldReadIsRelayed: a version resident only on the other
// worker reaches a reader through the coordinator, which holds every
// version's bytes: the read ships inline, BytesToWorkers counts it, and
// the result is right.
func TestDistPeerHeldReadIsRelayed(t *testing.T) {
	const n = 1 << 12
	gate := newGate(t)
	var x, y []byte
	stats, err := Run(2, func(rt *RT) error {
		a := rt.Register(make([]byte, n))
		dx := rt.Register(make([]byte, n))
		dy := rt.Register(make([]byte, n))
		rt.Task("test.fill", []byte{5}, Out(a))
		if err := rt.Taskwait(); err != nil { // a now resident on worker 0 only
			return err
		}
		// Worker 0 (affinity) is held inside the first reader until the
		// second has been placed — Task places a ready task before it
		// returns — so the second lands on worker 1, whose cache lacks a.
		rt.Task("test.gated-add", gate, In(a), In(a), Out(dx))
		rt.Task("test.add", nil, In(a), In(a), Out(dy))
		if err := openGate(gate); err != nil {
			return err
		}
		if err := rt.Taskwait(); err != nil {
			return err
		}
		x, y = rt.Read(dx), rt.Read(dy)
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range x {
		if x[i] != 10 || y[i] != 10 {
			t.Fatalf("results wrong at %d: x=%d y=%d, want 10", i, x[i], y[i])
		}
	}
	// a ships once, to worker 1 (its second In resolves as a cache hit);
	// nothing else ships: fill's output is produced on worker 0.
	if stats.BytesToWorkers != n || stats.PerWorker[1].BytesIn != n || stats.PerWorker[0].BytesIn != 0 {
		t.Fatalf("BytesToWorkers = %d (per worker %d, %d), want %d, all to worker 1",
			stats.BytesToWorkers, stats.PerWorker[0].BytesIn, stats.PerWorker[1].BytesIn, n)
	}
}

// --- TCP transport and handshake ---

// TestDistTCPTransport: the full basic program over authenticated TCP
// loopback, with the same results and the same transfer accounting as the
// Unix-socket run.
func TestDistTCPTransport(t *testing.T) {
	const n = 1 << 10
	var final []byte
	stats, err := Run(2, func(rt *RT) error {
		d := rt.Register(make([]byte, n))
		rt.Task("test.fill", []byte{7}, Out(d))
		rt.Task("test.inc", nil, InOut(d))
		rt.Task("test.inc", nil, InOut(d))
		if err := rt.Taskwait(); err != nil {
			return err
		}
		final = rt.Read(d)
		return nil
	}, Transport(TransportTCP))
	if err != nil {
		t.Fatalf("Run over TCP: %v", err)
	}
	for i, b := range final {
		if b != 9 {
			t.Fatalf("final[%d] = %d, want 9", i, b)
		}
	}
	if stats.Tasks != 3 || stats.Failed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestDistRejectsUnknownTransport: a bogus transport must fail fast, not
// hang waiting for workers.
func TestDistRejectsUnknownTransport(t *testing.T) {
	_, err := Run(1, func(rt *RT) error { return nil }, Transport("carrier-pigeon"))
	if err == nil || !strings.Contains(err.Error(), "unknown transport") {
		t.Fatalf("err = %v", err)
	}
}

// TestDistHandshakeRefusesBadSecret: a peer answering the challenge with
// the wrong secret must be closed and never admitted; a correct peer on
// the same listener still gets in.
func TestDistHandshakeRefusesBadSecret(t *testing.T) {
	secret := []byte("right-secret")
	l, addr, cleanup, err := listenRendezvous(TransportTCP)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer cleanup()
	defer l.Close()
	admit := make(chan admitted, 1)
	stop := make(chan struct{})
	defer close(stop)
	go acceptLoop(l, secret, time.Second, admit, stop)

	// Wrong secret: the server must close the connection on us.
	bad, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := answerChallenge(bad, []byte("wrong-secret"), 0, nil, time.Second); err != nil {
		t.Fatalf("sending the (bad) hello should succeed locally: %v", err)
	}
	bad.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := ReadFrame(bad); err == nil {
		t.Fatal("server sent a frame to an unauthenticated peer")
	}
	bad.Close()
	select {
	case <-admit:
		t.Fatal("unauthenticated peer was admitted")
	case <-time.After(100 * time.Millisecond):
	}

	// Right secret on the same listener: admitted.
	good, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer good.Close()
	if err := answerChallenge(good, secret, 3, nil, time.Second); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	select {
	case a := <-admit:
		if a.hello.Worker != 3 {
			t.Fatalf("admitted hello = %+v", a.hello)
		}
		a.conn.Close()
	case <-time.After(2 * time.Second):
		t.Fatal("authenticated peer not admitted")
	}
}

// TestDistHandshakeTimeoutSilentPeer: a worker that connects but never
// completes the handshake must not satisfy collectWorkers — the window
// expires with a descriptive error and the peer never consumes a slot.
func TestDistHandshakeTimeoutSilentPeer(t *testing.T) {
	l, addr, cleanup, err := listenRendezvous(TransportTCP)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer cleanup()
	defer l.Close()
	admit := make(chan admitted, 1)
	stop := make(chan struct{})
	defer close(stop)
	go acceptLoop(l, []byte("s"), 200*time.Millisecond, admit, stop)

	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer silent.Close() // connects, reads nothing, says nothing

	if _, err := collectWorkers(admit, 1, 400*time.Millisecond); err == nil ||
		!strings.Contains(err.Error(), "0 of 1 workers") {
		t.Fatalf("collect err = %v", err)
	}
	// The server's challenge deadline must also have dropped the peer.
	silent.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := silent.Read(buf); err != nil {
			return // closed (or deadline): either way, never admitted
		}
	}
}

// TestDistHandshakeTimeoutNoConnect: no worker ever connecting must time
// out rather than hang.
func TestDistHandshakeTimeoutNoConnect(t *testing.T) {
	admit := make(chan admitted)
	start := time.Now()
	if _, err := collectWorkers(admit, 2, 150*time.Millisecond); err == nil ||
		!strings.Contains(err.Error(), "0 of 2 workers") {
		t.Fatalf("collect err = %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout took far too long")
	}
}

// --- rejoinable workers ---

// TestDistRejoin: kill a worker mid-task with respawn enabled. The
// replacement must rejoin through the authenticated rendezvous with a
// cold cache — previously resident datums re-ship — and complete the rest
// of the DAG; only the in-flight task and its dependents are lost.
func TestDistRejoin(t *testing.T) {
	const n = 1 << 10
	var hVictim *Handle
	var z []byte
	stats, err := Run(1, func(rt *RT) error {
		a := rt.Register(make([]byte, n))
		x := rt.Register(make([]byte, n))
		rt.Task("test.fill", []byte{4}, Out(a))
		rt.Task("test.add", nil, In(a), In(a), Out(x)) // a ships: warm cache
		if err := rt.Taskwait(); err != nil {
			return err
		}

		b := rt.Register(make([]byte, n))
		hVictim = rt.Task("test.gated-inc", newGate(t), InOut(b)) // never opened: killed mid-task

		y := rt.Register(make([]byte, n))
		rt.Task("test.add", nil, In(a), In(a), Out(y)) // runs on the rejoined worker
		rt.Taskwait()                                  // first failure = the workerLostError
		z = rt.Read(y)
		return nil
	}, killWorkerAfter(0, 3), respawnLostWorkers())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var wl *workerLostError
	if !errors.As(hVictim.err(), &wl) || wl.Worker != 0 {
		t.Fatalf("victim error = %v", hVictim.err())
	}
	for i, v := range z {
		if v != 8 {
			t.Fatalf("z[%d] = %d, want 8", i, v)
		}
	}
	if stats.WorkersLost != 1 || stats.Rejoins != 1 {
		t.Fatalf("lost/rejoin accounting off: %+v", stats)
	}
	// Cold cache: `a` shipped before the kill and again after the rejoin.
	if stats.BytesToWorkers < 2*n {
		t.Fatalf("BytesToWorkers = %d, want >= %d (a must re-ship to the cold cache)",
			stats.BytesToWorkers, 2*n)
	}
}

// --- teardown drain deadline (the old hardcoded 10s kill) ---

// TestDistSlowDrainSurvives: a healthy worker that drains slowly must NOT
// be killed when the configured deadline is generous — this is the
// regression test for the hardcoded 10s AfterFunc that SIGKILLed slow
// drains on loaded hosts.
func TestDistSlowDrainSurvives(t *testing.T) {
	stats, err := Run(1, func(rt *RT) error {
		d := rt.Register(make([]byte, 64))
		rt.Task("test.fill", []byte{1}, Out(d))
		return rt.Taskwait()
	}, withSlowExit(400*time.Millisecond), exitKillDelay(30*time.Second))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.ExitKills != 0 || stats.WorkersLost != 0 {
		t.Fatalf("slow-draining worker was killed: %+v", stats)
	}
}

// TestDistExitKillDeadline: a worker exceeding the configured drain
// deadline is killed (and accounted), without failing the run — every
// task already completed.
func TestDistExitKillDeadline(t *testing.T) {
	stats, err := Run(1, func(rt *RT) error {
		d := rt.Register(make([]byte, 64))
		rt.Task("test.fill", []byte{1}, Out(d))
		return rt.Taskwait()
	}, withSlowExit(5*time.Second), exitKillDelay(150*time.Millisecond))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.ExitKills < 1 {
		t.Fatalf("wedged worker not killed by the drain deadline: %+v", stats)
	}
	if stats.Failed != 0 || stats.WorkersLost != 0 {
		t.Fatalf("post-drain kill leaked into the run's results: %+v", stats)
	}
}

// --- hostile frames at the worker (seed validation) ---

// TestDistWorkerRejectsSeedOutOfRange: a frame whose write seeds from a
// read index that does not exist must fail the task, not the worker.
func TestDistWorkerRejectsSeedOutOfRange(t *testing.T) {
	w := &wproc{slot: 0, cache: newWCache()}
	done := w.execTask(&TaskMsg{
		ID: 1, Kernel: "test.inc",
		Writes: []WireOut{{Datum: 1, Ver: 1, Size: 8, SeedFrom: 3}},
	})
	if done.Err == "" || !strings.Contains(done.Err, "out of range") {
		t.Fatalf("done.Err = %q, want seed index rejection", done.Err)
	}
}

// TestDistWorkerRejectsSeedSizeMismatch: a seed read shorter than the
// declared output size used to silently leave a zero tail in the seeded
// buffer; it must now fail the task with a descriptive error.
func TestDistWorkerRejectsSeedSizeMismatch(t *testing.T) {
	w := &wproc{slot: 0, cache: newWCache()}
	done := w.execTask(&TaskMsg{
		ID: 2, Kernel: "test.inc",
		Reads:  []WireRef{{Datum: 1, Ver: 1, Size: 4, Bytes: []byte{1, 2, 3, 4}}},
		Writes: []WireOut{{Datum: 1, Ver: 2, Size: 8, SeedFrom: 0}},
	})
	if done.Err == "" || !strings.Contains(done.Err, "seed is 4 bytes, want 8") {
		t.Fatalf("done.Err = %q, want seed size rejection", done.Err)
	}
}

// TestDistWorkerRejectsShortRead: shipped bytes disagreeing with the
// declared size are a protocol violation, rejected before caching.
func TestDistWorkerRejectsShortRead(t *testing.T) {
	w := &wproc{slot: 0, cache: newWCache()}
	done := w.execTask(&TaskMsg{
		ID: 3, Kernel: "test.inc", NIn: 1,
		Reads:  []WireRef{{Datum: 1, Ver: 1, Size: 8, Bytes: []byte{1, 2}}},
		Writes: []WireOut{{Datum: 1, Ver: 2, Size: 8, SeedFrom: -1}},
	})
	if done.Err == "" || !strings.Contains(done.Err, "got 2 bytes, want 8") {
		t.Fatalf("done.Err = %q, want short-read rejection", done.Err)
	}
}
