package dist

import (
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"ompssgo/internal/obs"
)

// KernelFunc is a distributed task body. args is the opaque argument blob
// the submitting side attached; in holds the kernel-visible In-clause
// payloads in clause order; out holds one buffer per Out/InOut clause in
// clause order, pre-seeded with the InOut copy-in (or zeroed for pure
// Out). The kernel must treat in as read-only — the slices alias the
// worker's version cache and mutating them would corrupt every later
// cache hit. A non-nil error (or a panic, which is recovered) poisons the
// task's outputs and skips its dependents, exactly as in-process.
type KernelFunc func(args []byte, in [][]byte, out [][]byte) error

var (
	kernelMu sync.RWMutex
	kernels  = make(map[string]KernelFunc)
)

// RegisterKernel installs a task body under a name. Both the coordinator
// and the workers run the same binary, so registering from init (or from
// anywhere before Run) makes the kernel visible in every process.
// Re-registering a name panics: silent replacement would mean coordinator
// and worker could disagree about what a name executes.
func RegisterKernel(name string, fn KernelFunc) {
	if fn == nil {
		panic("dist: RegisterKernel with nil kernel " + name)
	}
	kernelMu.Lock()
	defer kernelMu.Unlock()
	if _, dup := kernels[name]; dup {
		panic("dist: duplicate kernel " + name)
	}
	kernels[name] = fn
}

func lookupKernel(name string) (KernelFunc, bool) {
	kernelMu.RLock()
	defer kernelMu.RUnlock()
	fn, ok := kernels[name]
	return fn, ok
}

// MaybeWorker diverts a spawned child process into the worker loop. Call
// it first thing in main (and in TestMain for test binaries that use
// Run): in the parent it returns immediately; in a child spawned by a
// coordinator it connects back, serves tasks until shutdown, and exits
// the process.
func MaybeWorker() {
	addr := os.Getenv(envSocket)
	if addr == "" {
		return
	}
	slot, err := strconv.Atoi(os.Getenv(envWorker))
	if err != nil {
		fmt.Fprintf(os.Stderr, "dist worker: bad %s: %v\n", envWorker, err)
		os.Exit(2)
	}
	secret, err := hex.DecodeString(os.Getenv(envSecret))
	if err != nil || len(secret) == 0 {
		fmt.Fprintf(os.Stderr, "dist worker %d: bad %s\n", slot, envSecret)
		os.Exit(2)
	}
	network := os.Getenv(envNet)
	if network == "" {
		network = TransportUnix
	}
	if err := workerMain(network, addr, slot, secret); err != nil {
		fmt.Fprintf(os.Stderr, "dist worker %d: %v\n", slot, err)
		os.Exit(1)
	}
	if ms, _ := strconv.Atoi(os.Getenv(envSlowExit)); ms > 0 {
		time.Sleep(time.Duration(ms) * time.Millisecond) // test hook: slow drain
	}
	os.Exit(0)
}

// wproc is one worker process's state: the coordinator connection, the
// version cache, the peer-fetch server, and pooled connections to peers.
type wproc struct {
	slot   int
	secret []byte
	c      net.Conn
	cache  *wcache

	// Worker-side tracing (enabled by OMPSS_DIST_TRACE): a single-lane
	// recorder over kernel execution, cache traffic, and idle gaps, on a
	// clock epoched at worker start. Batches ride home on every DoneMsg;
	// the tail drains in a final Trace frame at shutdown.
	rec   *obs.Recorder
	epoch time.Time

	peerMu sync.Mutex
	peers  map[string]net.Conn // fetch address -> authenticated connection

	// per-task fetch accounting, reported on the next DoneMsg
	fetches        int
	fetchedBytes   int64
	fetchFallbacks int
}

// clockFn returns the recorder's epoch-relative clock, nil when not
// tracing — the same reading rides in Hello.Now for clock alignment.
func (w *wproc) clockFn() func() int64 {
	if w.rec == nil {
		return nil
	}
	return func() int64 { return time.Since(w.epoch).Nanoseconds() }
}

// emit records one worker-side trace event on the worker's single lane.
func (w *wproc) emit(k obs.Kind, task, arg uint64) {
	if w.rec != nil {
		w.rec.Emit(0, k, task, arg)
	}
}

func workerMain(network, addr string, slot int, secret []byte) error {
	w := &wproc{
		slot:   slot,
		secret: secret,
		cache:  newWCache(),
		peers:  make(map[string]net.Conn),
	}
	if cap, _ := strconv.Atoi(os.Getenv(envTrace)); cap > 0 {
		w.epoch = time.Now()
		w.rec = obs.NewRecorder(obs.Capacity(cap))
		w.rec.Attach(1, "dist-worker", false, w.clockFn())
	}

	// Peer-fetch server: other workers dial here to copy cached datum
	// versions directly instead of round-tripping through the coordinator.
	fetchAddr, stopFetch, err := w.serveFetch(network)
	if err != nil {
		return fmt.Errorf("fetch listener: %w", err)
	}
	defer stopFetch()

	c, err := net.Dial(network, addr)
	if err != nil {
		return fmt.Errorf("dial coordinator: %w", err)
	}
	defer c.Close()
	w.c = c
	if err := answerChallenge(c, secret, slot, fetchAddr, w.clockFn(), DefaultHandshakeTimeout); err != nil {
		return fmt.Errorf("handshake: %w", err)
	}

	for {
		w.emit(obs.EvIdleEnter, 0, 0)
		f, err := ReadFrame(c)
		if err != nil {
			if err == io.EOF {
				return nil // coordinator went away: quiet exit
			}
			return fmt.Errorf("read: %w", err)
		}
		w.emit(obs.EvIdleExit, 0, 0)
		switch {
		case f.Shutdown:
			w.flushTrace()
			return nil
		case f.Task != nil:
			if err := w.execAndReport(f.Task); err != nil {
				return err
			}
		case f.Chain != nil:
			if len(f.Chain.Tasks) > 0 {
				w.emit(obs.EvChain, f.Chain.Tasks[0].ID, uint64(len(f.Chain.Tasks)))
			}
			// Execute the pushed sub-DAG locally, one Done per link. A
			// failing link aborts the remainder: every later link depends
			// on it, and the coordinator resolves them as skipped without
			// any further frames.
			for _, msg := range f.Chain.Tasks {
				failed, err := w.execAndReportOutcome(msg)
				if err != nil {
					return err
				}
				if failed {
					break
				}
			}
		default:
			return fmt.Errorf("unexpected frame from coordinator")
		}
	}
}

// flushTrace ships whatever trace tail accumulated after the last Done —
// the shutdown-ordered idle gap, at minimum — as the connection's final
// frame. Send errors are ignored: the coordinator may already be tearing
// the connection down, and a lost tail only shortens the trace.
func (w *wproc) flushTrace() {
	if w.rec == nil {
		return
	}
	evs, dropped := w.rec.Drain()
	_ = WriteFrame(w.c, &Frame{Trace: &TraceMsg{Slot: w.slot, Events: evs, Dropped: dropped}})
}

func (w *wproc) execAndReport(msg *TaskMsg) error {
	_, err := w.execAndReportOutcome(msg)
	return err
}

func (w *wproc) execAndReportOutcome(msg *TaskMsg) (failed bool, err error) {
	done := w.execTask(msg)
	if w.rec != nil {
		// Piggyback the trace batch on the completion it describes: no
		// extra frames, no worker-side buffering across tasks.
		done.Events, done.EventsDropped = w.rec.Drain()
	}
	if err := WriteFrame(w.c, &Frame{Done: done}); err != nil {
		return false, fmt.Errorf("send done: %w", err)
	}
	return done.Err != "", nil
}

// execTask runs one task message against the local cache and returns its
// completion. All failure modes — cache protocol violations, unknown
// kernels, kernel errors, kernel panics — are reported in DoneMsg.Err so
// the coordinator can poison the writer and skip dependents; only
// transport failures kill the worker.
func (w *wproc) execTask(msg *TaskMsg) *DoneMsg {
	w.emit(obs.EvStart, msg.ID, 0)
	done := w.execTaskBody(msg)
	w.emit(obs.EvEnd, msg.ID, 0)
	return done
}

func (w *wproc) execTaskBody(msg *TaskMsg) *DoneMsg {
	done := &DoneMsg{ID: msg.ID}
	w.fetches, w.fetchedBytes, w.fetchFallbacks = 0, 0, 0
	// Coordinator-directed eviction first: the Evict list was computed
	// against the cache state before this task's inserts.
	w.cache.applyEvict(msg.Evict)

	// Resolve the read set by the ref's wire mode: shipped bytes (non-nil,
	// possibly empty) enter the cache as views into this task's frame,
	// forwarding directives are fetched from the named peer (coordinator
	// relay as fallback), and cached refs must already be resident (the
	// coordinator's mirror said so).
	reads := make([][]byte, len(msg.Reads))
	for i, r := range msg.Reads {
		k := CacheKey{Datum: r.Datum, Ver: r.Ver}
		switch {
		case r.Bytes != nil:
			if int64(len(r.Bytes)) != r.Size {
				done.Err = fmt.Sprintf("read %d: got %d bytes, want %d", i, len(r.Bytes), r.Size)
				return done
			}
			w.cache.put(k, r.Bytes)
			reads[i] = r.Bytes
			w.emit(obs.EvXfer, msg.ID, uint64(len(r.Bytes)))
		case r.From != "":
			b, err := w.fetchRef(r, msg.ID)
			if err != nil {
				done.Err = fmt.Sprintf("read %d: fetch (datum %d, ver %d): %v", i, r.Datum, r.Ver, err)
				return done
			}
			w.cache.put(k, b)
			reads[i] = b
		default:
			b, ok := w.cache.get(k)
			if !ok {
				done.Err = fmt.Sprintf("read %d: (datum %d, ver %d) not cached", i, r.Datum, r.Ver)
				return done
			}
			reads[i] = b
			w.emit(obs.EvXferHit, msg.ID, uint64(len(b)))
		}
	}

	// Build the output buffers, seeding InOut ones from their copy-in. A
	// seed whose length disagrees with the declared output size is a
	// protocol violation: a silent short copy would leave a zero tail in
	// the seeded buffer, so the task fails loudly instead.
	outs := make([][]byte, len(msg.Writes))
	for i, wo := range msg.Writes {
		buf := make([]byte, wo.Size)
		if wo.SeedFrom >= 0 {
			if wo.SeedFrom >= len(reads) {
				done.Err = fmt.Sprintf("write %d: seed index %d out of range", i, wo.SeedFrom)
				return done
			}
			seed := reads[wo.SeedFrom]
			if int64(len(seed)) != wo.Size {
				done.Err = fmt.Sprintf("write %d: seed is %d bytes, want %d", i, len(seed), wo.Size)
				return done
			}
			copy(buf, seed)
		}
		outs[i] = buf
	}

	fn, ok := lookupKernel(msg.Kernel)
	if !ok {
		done.Err = fmt.Sprintf("kernel %q not registered in worker", msg.Kernel)
		return done
	}
	if err := runKernel(fn, msg.Args, reads[:msg.NIn], outs, done); err != nil {
		done.Err = err.Error()
		return done
	}
	if done.Err != "" {
		return done
	}
	// Success: outputs become cached versions (the coordinator's mirror
	// inserts the same keys when it sees this Done), and ride home.
	for i, wo := range msg.Writes {
		w.cache.put(CacheKey{Datum: wo.Datum, Ver: wo.Ver}, outs[i])
	}
	done.Outputs = outs
	done.Fetches = w.fetches
	done.FetchedBytes = w.fetchedBytes
	done.FetchFallbacks = w.fetchFallbacks
	return done
}

// fetchRef resolves a forwarding directive: copy the pair from the peer
// named in the ref, falling back to a coordinator relay when the peer is
// unreachable or no longer holds it. The coordinator always holds the
// content of any version it forwards, so the fallback cannot miss.
func (w *wproc) fetchRef(r WireRef, task uint64) ([]byte, error) {
	if b, err := w.fetchFromPeer(r.From, CacheKey{Datum: r.Datum, Ver: r.Ver}); err == nil {
		if int64(len(b)) != r.Size {
			return nil, fmt.Errorf("peer sent %d bytes, want %d", len(b), r.Size)
		}
		w.fetches++
		w.fetchedBytes += r.Size
		w.emit(obs.EvForward, task, uint64(r.Size))
		return b, nil
	}
	// Relay fallback: ask the coordinator. The task loop owns the
	// connection while a task executes, and the coordinator dispatches
	// nothing to a busy worker, so the next frame is the Data answer.
	w.fetchFallbacks++
	if err := WriteFrame(w.c, &Frame{Fetch: &FetchMsg{Datum: r.Datum, Ver: r.Ver}}); err != nil {
		return nil, fmt.Errorf("relay request: %w", err)
	}
	f, err := ReadFrame(w.c)
	if err != nil {
		return nil, fmt.Errorf("relay read: %w", err)
	}
	if f.Data == nil || !f.Data.Found {
		return nil, fmt.Errorf("coordinator relay miss")
	}
	if int64(len(f.Data.Bytes)) != r.Size {
		return nil, fmt.Errorf("relay sent %d bytes, want %d", len(f.Data.Bytes), r.Size)
	}
	w.emit(obs.EvXfer, task, uint64(r.Size))
	return f.Data.Bytes, nil
}

// fetchFromPeer copies one cached pair from another worker's fetch
// server, pooling one authenticated connection per peer. Any error drops
// the pooled connection so a restarted peer gets a fresh dial.
func (w *wproc) fetchFromPeer(fetchAddr string, k CacheKey) ([]byte, error) {
	w.peerMu.Lock()
	defer w.peerMu.Unlock()
	c, ok := w.peers[fetchAddr]
	if !ok {
		network, addr := dialAddr(fetchAddr)
		var err error
		c, err = net.DialTimeout(network, addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		if err := answerChallenge(c, w.secret, w.slot, "", nil, 5*time.Second); err != nil {
			c.Close()
			return nil, err
		}
		w.peers[fetchAddr] = c
	}
	fail := func(err error) ([]byte, error) {
		c.Close()
		delete(w.peers, fetchAddr)
		return nil, err
	}
	c.SetDeadline(time.Now().Add(10 * time.Second))
	defer c.SetDeadline(time.Time{})
	if err := WriteFrame(c, &Frame{Fetch: &FetchMsg{Datum: k.Datum, Ver: k.Ver}}); err != nil {
		return fail(err)
	}
	f, err := ReadFrame(c)
	if err != nil {
		return fail(err)
	}
	if f.Data == nil {
		return fail(fmt.Errorf("peer answered with a non-Data frame"))
	}
	if !f.Data.Found {
		return nil, fmt.Errorf("peer no longer holds the pair")
	}
	return f.Data.Bytes, nil
}

// serveFetch starts the worker's peer-fetch listener: each inbound
// connection is challenged with the run secret, then served Fetch→Data
// until it closes. Returns the advertised "net:addr" and a stopper.
func (w *wproc) serveFetch(network string) (string, func(), error) {
	var l net.Listener
	var cleanup func()
	switch network {
	case TransportUnix:
		dir, err := os.MkdirTemp("", "ompss-dw-")
		if err != nil {
			return "", nil, err
		}
		path := filepath.Join(dir, "fetch.sock")
		l, err = net.Listen("unix", path)
		if err != nil {
			os.RemoveAll(dir)
			return "", nil, err
		}
		cleanup = func() { os.RemoveAll(dir) }
	default:
		var err error
		l, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", nil, err
		}
		cleanup = func() {}
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go w.servePeer(c)
		}
	}()
	addr := network + ":" + fetchAddrOf(l, network)
	return addr, func() { l.Close(); cleanup() }, nil
}

func fetchAddrOf(l net.Listener, network string) string {
	return l.Addr().String()
}

// servePeer answers one peer connection: authenticate, then serve cached
// pairs. A miss answers Found=false (the peer falls back to the
// coordinator); any transport error closes the connection.
func (w *wproc) servePeer(c net.Conn) {
	defer c.Close()
	if _, _, err := challengeConn(c, w.secret, 10*time.Second); err != nil {
		return
	}
	for {
		f, err := ReadFrame(c)
		if err != nil {
			return
		}
		if f.Fetch == nil {
			return
		}
		k := CacheKey{Datum: f.Fetch.Datum, Ver: f.Fetch.Ver}
		b, ok := w.cache.get(k)
		if err := WriteFrame(c, &Frame{Data: &DataMsg{
			Datum: k.Datum, Ver: k.Ver, Found: ok, Bytes: b,
		}}); err != nil {
			return
		}
	}
}

// runKernel isolates the recover so a panicking kernel poisons the task
// instead of the worker process.
func runKernel(fn KernelFunc, args []byte, in, out [][]byte, done *DoneMsg) (err error) {
	defer func() {
		if r := recover(); r != nil {
			done.Panic = true
			err = fmt.Errorf("kernel panic: %v", r)
		}
	}()
	return fn(args, in, out)
}
