package dist

import (
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"os"
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

// wproc is one worker process's state: the coordinator connection and the
// version cache. A worker only dials out: everything it reads arrives on
// the coordinator connection.
type wproc struct {
	slot  int
	c     net.Conn
	cache *wcache

	// Worker-side tracing (enabled by OMPSS_DIST_TRACE): a single-lane
	// recorder over kernel execution, cache traffic, and idle gaps, on a
	// clock epoched at worker start. Batches ride home on every DoneMsg;
	// the tail drains in a final Trace frame at shutdown.
	rec   *obs.Recorder
	epoch time.Time
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
	w := &wproc{slot: slot, cache: newWCache()}
	if cap, _ := strconv.Atoi(os.Getenv(envTrace)); cap > 0 {
		w.epoch = time.Now()
		w.rec = obs.NewRecorder(obs.Capacity(cap))
		w.rec.Attach(1, "dist-worker", false, w.clockFn())
	}

	c, err := net.Dial(network, addr)
	if err != nil {
		return fmt.Errorf("dial coordinator: %w", err)
	}
	defer c.Close()
	w.c = c
	if err := answerChallenge(c, secret, slot, w.clockFn(), DefaultHandshakeTimeout); err != nil {
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
	// Coordinator-directed eviction first: the Evict list was computed
	// against the cache state before this task's inserts.
	w.cache.applyEvict(msg.Evict)

	// Resolve the read set by the ref's wire mode: shipped bytes (non-nil,
	// possibly empty) enter the cache as views into this task's frame, and
	// cached refs must already be resident (the coordinator's mirror said
	// so).
	reads := make([][]byte, len(msg.Reads))
	for i, r := range msg.Reads {
		k := CacheKey{Datum: r.Datum, Ver: r.Ver}
		if r.Bytes != nil {
			if int64(len(r.Bytes)) != r.Size {
				done.Err = fmt.Sprintf("read %d: got %d bytes, want %d", i, len(r.Bytes), r.Size)
				return done
			}
			w.cache.put(k, r.Bytes)
			reads[i] = r.Bytes
			w.emit(obs.EvXfer, msg.ID, uint64(len(r.Bytes)))
			continue
		}
		b, ok := w.cache.get(k)
		if !ok {
			done.Err = fmt.Sprintf("read %d: (datum %d, ver %d) not cached", i, r.Datum, r.Ver)
			return done
		}
		reads[i] = b
		w.emit(obs.EvXferHit, msg.ID, uint64(len(b)))
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
	return done
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
