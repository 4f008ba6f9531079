package dist

import (
	"fmt"
	"os/exec"
	"sync"
	"time"

	"ompssgo/internal/core"
	"ompssgo/internal/obs"
)

// DefaultCacheBytes is the per-worker version-cache budget when cacheBytes
// is not given.
const DefaultCacheBytes int64 = 64 << 20

// DefaultChainLimit bounds how many tasks one dispatch frame may carry
// when chainLimit is not given.
const DefaultChainLimit = 16

// Transport names for the Transport option: workers rendezvous over a
// Unix domain socket (single host, the default) or authenticated TCP
// loopback. Every transport runs the same HMAC challenge/response
// handshake; TCP is where it matters, since anything that can reach the
// port can connect.
const (
	TransportUnix = "unix"
	TransportTCP  = "tcp"
)

// config collects Run options.
type config struct {
	cacheBytes int64
	killWorker int // slot to kill, -1 = none
	killAfter  int // kill after this many dispatches to that slot
	transport  string
	exitKill   time.Duration
	respawn    bool
	chainLimit int
	slowExit   time.Duration // test hook: worker sleeps this long before exiting
	traceCap   int           // per-worker trace ring capacity; >0 turns on worker-side tracing
	traceSink  func(*obs.Trace)
}

// Option configures Run.
type Option func(*config)

// cacheBytes sets the per-worker version-cache budget (a target, not a
// hard wall: one task's own working set is always allowed to exceed it,
// and a resident entry that was shipped keeps the frame it arrived in
// alive until its frame-mates are evicted too — see wcache).
func cacheBytes(n int64) Option { return func(c *config) { c.cacheBytes = n } }

// killWorkerAfter kills worker `slot`'s process right after its n-th
// dispatch frame is sent — the fault-injection hook the crash-confinement
// and rejoin tests and the CI dist-smoke job use. It fires at most once,
// so a respawned worker in the same slot is not re-killed.
func killWorkerAfter(slot, n int) Option {
	return func(c *config) { c.killWorker, c.killAfter = slot, n }
}

// Transport selects the worker rendezvous transport: TransportUnix (the
// default) or TransportTCP.
func Transport(name string) Option { return func(c *config) { c.transport = name } }

// exitKillDelay sets the teardown kill deadline: how long a worker that
// was asked to shut down may take to drain and exit before the
// coordinator kills its process. The default is DefaultHandshakeTimeout,
// generous on purpose: the old hardcoded 10s deadline SIGKILLed healthy
// workers draining large writebacks on slow CI hosts.
func exitKillDelay(d time.Duration) Option { return func(c *config) { c.exitKill = d } }

// respawnLostWorkers makes the coordinator re-exec a fresh worker process
// for any slot whose worker is lost mid-run. The replacement rejoins
// through the normal authenticated rendezvous with a cold cache. Without
// this option a lost slot stays lost (but an externally restarted worker
// that dials back in is still re-admitted).
func respawnLostWorkers() Option { return func(c *config) { c.respawn = true } }

// chainLimit bounds how many tasks one dispatch frame may carry as a
// worker-side chain (default DefaultChainLimit). Values below 2 disable
// chaining.
func chainLimit(n int) Option { return func(c *config) { c.chainLimit = n } }

// TraceWorkers turns on worker-side tracing: every spawned worker process
// records its own kernel-execution stream into a ring of `capacity`
// events (0 means obs.DefaultCapacity) and ships batches back on its
// completions. Use TraceSink to receive the merged cross-process trace.
func TraceWorkers(capacity int) Option {
	return func(c *config) {
		if capacity <= 0 {
			capacity = obs.DefaultCapacity
		}
		c.traceCap = capacity
	}
}

// TraceSink registers the receiver of the run's merged cross-process
// trace: the coordinator's own stream plus every worker incarnation's
// shipped events, clock-aligned via the handshake round-trip and folded
// into per-(slot, generation) tracks. Implies TraceWorkers and records the
// coordinator's base stream: the standard task-lifecycle vocabulary plus
// EvXfer/EvXferHit transfer events and EvChain chain dispatches, with
// worker-process slots as lanes. The sink runs on the Run goroutine after
// teardown, before Run returns.
func TraceSink(fn func(*obs.Trace)) Option { return func(c *config) { c.traceSink = fn } }

// withSlowExit is the test hook behind the exitKillDelay regression
// tests: spawned workers sleep this long between finishing their drain
// and exiting, modeling a slow writeback on a loaded host.
func withSlowExit(d time.Duration) Option { return func(c *config) { c.slowExit = d } }

// WorkerStats is one worker process's slice of the accounting.
type WorkerStats struct {
	Tasks     int
	BytesIn   int64 // bytes shipped to this worker (copy-in)
	BytesOut  int64 // bytes carried back on completions
	CacheHits int
	Lost      bool
}

// Stats is what a distributed run reports.
type Stats struct {
	Workers          int
	Tasks            int
	Failed           int
	Skipped          int
	BytesToWorkers   int64
	BytesFromWorkers int64
	Transfers        int
	TransfersAvoided int
	BytesAvoided     int64
	Evictions        int64
	WorkersLost      int

	// RoundTrips counts dispatch frames the coordinator sent. Without
	// chaining it equals the tasks that reached a worker; chains push
	// several tasks per frame, so RoundTrips < Tasks measures saved
	// coordinator round-trips.
	RoundTrips   int
	Chains       int // chain frames sent
	ChainedTasks int // tasks that rode a chain as a non-first link
	ChainDepth   int // deepest chain, in tasks

	// BytesForwarded and ForwardFallbacks are always 0: every read a
	// worker lacks travels inline from the coordinator and is counted in
	// BytesToWorkers. They stay only while benchmark/dist.go still reads
	// them, and go with those reads.
	BytesForwarded   int64
	ForwardFallbacks int

	Rejoins   int // workers re-admitted after a loss (cold cache)
	ExitKills int // workers killed by the teardown drain deadline

	Graph     core.GraphStats
	PerWorker []WorkerStats
}

// Datum is a distributed datum handle: canonical storage is a
// coordinator-owned byte buffer behind a renameable core datum; workers
// only ever see migrated version instances of it.
type Datum struct {
	id  uint64
	buf []byte
	cd  *core.Datum
}

// Clause is one (datum, mode) access of a distributed task.
type Clause struct {
	d    *Datum
	mode core.Mode
}

// In declares a read of d's current version.
func In(d *Datum) Clause { return Clause{d, core.In} }

// Out declares d fully overwritten (no copy-in; the kernel's out buffer
// arrives zeroed).
func Out(d *Datum) Clause { return Clause{d, core.Out} }

// InOut declares read-modify-write: the kernel's out buffer arrives
// seeded with the read version's content.
func InOut(d *Datum) Clause { return Clause{d, core.InOut} }

// Handle follows one submitted task.
type Handle struct{ t *core.Task }

// err blocks until the task finished and returns its outcome (nil,
// remoteError, workerLostError, skipError, or ErrNoWorkers).
func (h *Handle) err() error {
	<-h.t.Done()
	return h.t.Err()
}

// skipped reports whether the task was released without executing.
func (h *Handle) skipped() bool { return h.t.Skipped() }

// outBinding remembers where one dispatched write lands when its bytes
// come home: the coordinator-side payload of the version the task's
// clause bound.
type outBinding struct {
	key     CacheKey
	payload []byte
}

// inflight is one task dispatched to a worker and not yet completed.
type inflight struct {
	t    *core.Task
	info *taskInfo
	outs []outBinding
}

// workerState is the coordinator's view of one worker process. queue is
// the dispatched-but-uncompleted tasks in execution order — one entry for
// a plain dispatch, the links of one chain otherwise. gen increments on
// every (re)admission, so a stale reader of a previous connection cannot
// kill a rejoined worker.
type workerState struct {
	slot   int
	cmd    *exec.Cmd
	conn   *conn
	gen    int
	mir    *mirror
	queue  []*inflight
	dead   bool
	sent   int // dispatch frames sent, for killWorkerAfter
	wstats WorkerStats
	tb     *traceBucket // current incarnation's shipped-trace bucket (nil unless tracing)
}

// taskInfo carries the dist-level description of a submitted task (the
// core.Task holds only the dependence shape).
type taskInfo struct {
	kernel  string
	args    []byte
	clauses []Clause
}

// send is one frame to transmit after the coordinator lock drops. kill is
// the killWorkerAfter fault hook — the process to kill after the send, nil
// for none — captured under the lock so transmit touches no mutable worker
// state (a respawn replaces w.cmd); gen guards the lost-worker path
// against a connection replaced by a rejoin.
type send struct {
	w    *workerState
	gen  int
	f    *Frame
	kill *exec.Cmd
}

// RT is the coordinator runtime handed to the program function: Register
// datums, submit Tasks, Taskwait, Read results back.
type RT struct {
	g       *core.Graph
	ctx     *core.Context
	cfg     config
	workers []*workerState
	rec     *obs.Recorder
	clock   func() int64
	epoch   time.Time
	buckets []*traceBucket // every worker incarnation's bucket, admission order
	secret  []byte
	addr    string // rendezvous address workers dial, for respawn
	stopCh  chan struct{}
	readers sync.WaitGroup

	mu             sync.Mutex
	cond           *sync.Cond
	ready          []*core.Task
	info           map[*core.Task]*taskInfo
	chained        map[*core.Task]bool // speculatively dispatched chain links
	cmds           []*exec.Cmd
	pendingRejoins int
	killFired      bool
	nextID         uint64
	stats          Stats
	closed         bool
}

// Register creates a distributed datum over content, which becomes the
// datum's canonical storage: the caller gives content up and must neither
// read nor write it afterwards (Read returns a copy of the datum's value
// once a Taskwait has drained it). Adopting the slice instead of copying it
// keeps one coordinator copy of every registered byte, not two. Version
// instances migrate to workers on demand. Size is fixed for the datum's
// lifetime.
func (rt *RT) Register(content []byte) *Datum {
	d := &Datum{buf: content}
	rt.mu.Lock()
	rt.nextID++
	d.id = rt.nextID
	rt.mu.Unlock()
	d.cd = rt.g.Register(d)
	n := len(content)
	d.cd.EnableRenaming(content,
		func() any { return make([]byte, n) },
		func(dst, src any) { copy(dst.([]byte), src.([]byte)) })
	return d
}

// Read copies the datum's canonical content out. Call only when the datum
// is quiescent — after a Taskwait — when writeback-on-drain guarantees
// canonical holds the program-order last successful value.
func (rt *RT) Read(d *Datum) []byte {
	ref := d.cd.Canonical()
	src, _ := ref.Payload.([]byte)
	out := make([]byte, len(src))
	copy(out, src)
	return out
}

// Task submits one distributed task: kernel must be registered (in every
// process) under RegisterKernel, args is the opaque argument blob, and
// clauses declare the datum accesses in the order the kernel sees its
// in[]/out[] slices.
func (rt *RT) Task(kernel string, args []byte, clauses ...Clause) *Handle {
	t := &core.Task{
		Label:  kernel,
		Parent: rt.ctx,
	}
	for _, c := range clauses {
		t.Accesses = append(t.Accesses, core.Access{
			Key:   c.d,
			Mode:  c.mode,
			Bytes: int64(len(c.d.buf)),
			Datum: c.d.cd,
		})
	}
	info := &taskInfo{kernel: kernel, args: args, clauses: clauses}

	rt.mu.Lock()
	rt.info[t] = info
	rt.stats.Tasks++
	rt.mu.Unlock()

	// Submit outside rt.mu by lock order (shard locks nest under rt.mu
	// elsewhere, but Submit's wiring holds them across a callback-free
	// region; keeping rt.mu out of it keeps submission concurrent with
	// completions).
	ready := rt.g.Submit(t)

	rt.mu.Lock()
	if rt.rec != nil {
		rt.rec.EmitLabel(-1, obs.EvSubmit, t.ID, uint64(len(t.Preds)), kernel)
		for _, p := range t.Preds {
			rt.rec.Emit(-1, obs.EvEdge, t.ID, p)
		}
	}
	var sends []send
	if ready {
		rt.ready = append(rt.ready, t)
		sends = rt.dispatchLocked()
	}
	rt.mu.Unlock()
	rt.transmit(sends)
	return &Handle{t: t}
}

// Taskwait blocks until every submitted task finished and returns the
// first failure of the batch (clearing it, as in-process taskwait does).
func (rt *RT) Taskwait() error {
	rt.mu.Lock()
	for rt.ctx.Pending() > 0 {
		rt.cond.Wait()
	}
	rt.mu.Unlock()
	return rt.ctx.TakeErr()
}

// readKeys lists the version keys a dispatched task reads (for affinity
// scoring and cache planning); call between Submit and Finish.
func readKeys(t *core.Task, info *taskInfo) []CacheKey {
	var keys []CacheKey
	for _, c := range info.clauses {
		if c.mode == core.In || c.mode == core.InOut {
			read, _ := c.d.cd.Binding(t)
			if read.Valid() {
				keys = append(keys, CacheKey{Datum: c.d.id, Ver: read.Ver})
			}
		}
	}
	return keys
}

// dispatchLocked drains the ready queue onto idle workers and returns the
// frames to transmit once the lock drops. It also resolves tasks that
// never reach a worker: upstream-failed tasks skip, and with every worker
// lost (and no rejoin pending) the rest fail with ErrNoWorkers.
func (rt *RT) dispatchLocked() []send {
	var sends []send
	for len(rt.ready) > 0 {
		t := rt.ready[0]

		// Skip-on-error exactly as the in-process executor: a failed
		// predecessor's error reached the task along its dependence edges.
		if up := t.Upstream(); up != nil {
			rt.ready = rt.ready[1:]
			t.MarkSkipped()
			rt.g.CountSkipped()
			rt.stats.Skipped++
			if rt.rec != nil {
				rt.rec.Emit(-1, obs.EvSkip, t.ID, 0)
			}
			rt.finishLocked(t, &skipError{Cause: up})
			continue
		}

		// Pick the idle live worker with the most of this task's read set
		// already cached (bytes, not entries — affinity follows data).
		info := rt.info[t]
		keys := readKeys(t, info)
		var best *workerState
		var bestHit int64 = -1
		anyLive := false
		for _, w := range rt.workers {
			if w.dead {
				continue
			}
			anyLive = true
			if len(w.queue) > 0 {
				continue
			}
			if hit := w.mir.hitBytes(keys); hit > bestHit {
				best, bestHit = w, hit
			}
		}
		if !anyLive {
			if rt.pendingRejoins > 0 {
				return sends // a replacement worker is on its way; hold the queue
			}
			rt.ready = rt.ready[1:]
			rt.stats.Failed++
			rt.finishLocked(t, ErrNoWorkers)
			continue
		}
		if best == nil {
			return sends // all live workers busy; done of one resumes us
		}
		rt.ready = rt.ready[1:]
		sends = append(sends, rt.assignLocked(best, t, info))
	}
	return sends
}

// assignLocked dispatches t to w, then tries to grow the dispatch into a
// chain: while the tail task has a sole-dependent successor whose reads
// are all resident on w (counting what earlier links will produce) and
// whose kernel is registered, the successor rides the same frame and the
// worker executes it locally without another coordinator round-trip.
// Links after the first are speculative — the tracker has not released
// them yet — so they are remembered in rt.chained and filtered out of
// Finish's newly-ready set when their predecessor link completes.
func (rt *RT) assignLocked(w *workerState, t *core.Task, info *taskInfo) send {
	// produced accumulates the keys earlier links will have written by the
	// time a later link runs: resident for planning, but NOT in the mirror
	// until the worker actually reports success (a failed writer's outputs
	// never enter either cache).
	produced := make(map[CacheKey]bool)
	var pinned []CacheKey
	var incoming int64

	msg, inf := rt.buildTaskLocked(w, t, info, produced, &pinned, &incoming)
	links := []*TaskMsg{msg}
	w.queue = append(w.queue, inf)
	for _, ob := range inf.outs {
		produced[ob.key] = true
	}

	cur := t
	for len(links) < rt.cfg.chainLimit {
		s, sinfo := rt.chainSuccessorLocked(w, cur, produced)
		if s == nil {
			break
		}
		smsg, sinf := rt.buildTaskLocked(w, s, sinfo, produced, &pinned, &incoming)
		links = append(links, smsg)
		w.queue = append(w.queue, sinf)
		rt.chained[s] = true
		for _, ob := range sinf.outs {
			produced[ob.key] = true
		}
		cur = s
	}

	// One eviction plan for the whole frame, pinned across every link's
	// working set, carried by the first link (the worker applies it before
	// anything else). Shipped reads are already in the mirror; incoming is
	// the outputs still to come.
	links[0].Evict = w.mir.planEvict(pinned, incoming)
	rt.stats.Evictions = 0
	for _, ws := range rt.workers {
		rt.stats.Evictions += ws.mir.evicted
	}

	rt.stats.RoundTrips++
	w.sent++
	var f *Frame
	if len(links) == 1 {
		f = &Frame{Task: links[0]}
	} else {
		f = &Frame{Chain: &ChainMsg{Tasks: links}}
		rt.stats.Chains++
		rt.stats.ChainedTasks += len(links) - 1
		if len(links) > rt.stats.ChainDepth {
			rt.stats.ChainDepth = len(links)
		}
		if rt.rec != nil {
			rt.rec.Emit(w.slot, obs.EvChain, t.ID, uint64(len(links)))
		}
	}
	var kill *exec.Cmd
	if !rt.killFired && rt.cfg.killWorker == w.slot && w.sent >= rt.cfg.killAfter {
		kill, rt.killFired = w.cmd, true
	}
	return send{w: w, gen: w.gen, f: f, kill: kill}
}

// chainSuccessorLocked finds a successor of cur eligible to ride the same
// dispatch frame: the tracker's SoleDependents query proves cur is its
// only gate (and no finished predecessor failed), and on top of that it
// must be a dist task with a registered kernel whose every read is
// resident on w or produced by an earlier link of this frame. Chains are
// linear: the first eligible successor wins.
func (rt *RT) chainSuccessorLocked(w *workerState, cur *core.Task, produced map[CacheKey]bool) (*core.Task, *taskInfo) {
	for _, s := range rt.g.SoleDependents(cur) {
		if rt.chained[s] {
			continue
		}
		sinfo := rt.info[s]
		if sinfo == nil {
			continue
		}
		if _, ok := lookupKernel(sinfo.kernel); !ok {
			continue
		}
		resident := true
		for _, k := range readKeys(s, sinfo) {
			if !produced[k] && !w.mir.has(k) {
				resident = false
				break
			}
		}
		if !resident {
			continue
		}
		return s, sinfo
	}
	return nil, nil
}

// buildTaskLocked builds the wire message for one (worker, task) pairing,
// updating the worker's cache mirror and the transfer accounting. pinned
// and incoming accumulate across chain links for the caller's single
// eviction plan. produced marks keys earlier links of the same frame will
// have written (resident by execution time, absent from the mirror).
func (rt *RT) buildTaskLocked(w *workerState, t *core.Task, info *taskInfo,
	produced map[CacheKey]bool, pinned *[]CacheKey, incoming *int64) (*TaskMsg, *inflight) {
	msg := &TaskMsg{ID: t.ID, Kernel: info.kernel, Args: info.args}

	// Layout: kernel-visible In reads first, one entry per In clause in
	// clause order (the kernel's in[] indexes by clause, so no dedupe —
	// a repeated version costs nothing extra anyway: the first occurrence
	// ships, later ones resolve as cache hits). InOut seed reads follow;
	// writes in clause order referencing their seed.
	type pendRead struct {
		key  CacheKey
		data []byte
	}
	var reads []pendRead
	var writes []WireOut
	for _, c := range info.clauses {
		if c.mode != core.In {
			continue
		}
		read, _ := c.d.cd.Binding(t)
		reads = append(reads, pendRead{CacheKey{Datum: c.d.id, Ver: read.Ver}, read.Payload.([]byte)})
	}
	msg.NIn = len(reads)
	for _, c := range info.clauses {
		if c.mode != core.Out && c.mode != core.InOut {
			continue
		}
		read, write := c.d.cd.Binding(t)
		wo := WireOut{Datum: c.d.id, Ver: write.Ver, Size: int64(len(c.d.buf)), SeedFrom: -1}
		if c.mode == core.InOut && read.Valid() {
			reads = append(reads, pendRead{CacheKey{Datum: c.d.id, Ver: read.Ver}, read.Payload.([]byte)})
			wo.SeedFrom = len(reads) - 1
		}
		writes = append(writes, wo)
	}

	inf := &inflight{t: t, info: info, outs: make([]outBinding, 0, len(writes))}
	for _, wo := range writes {
		k := CacheKey{Datum: wo.Datum, Ver: wo.Ver}
		*pinned = append(*pinned, k)
		*incoming += wo.Size
		// Resolve the write's coordinator-side landing payload now, while
		// the binding is live.
		var payload []byte
		for _, c := range info.clauses {
			if c.d.id == wo.Datum && (c.mode == core.Out || c.mode == core.InOut) {
				_, write := c.d.cd.Binding(t)
				if write.Ver == wo.Ver {
					payload = write.Payload.([]byte)
					break
				}
			}
		}
		inf.outs = append(inf.outs, outBinding{key: k, payload: payload})
	}

	for _, r := range reads {
		*pinned = append(*pinned, r.key)
		wr := WireRef{Datum: r.key.Datum, Ver: r.key.Ver, Size: int64(len(r.data))}
		switch {
		case w.mir.has(r.key):
			w.mir.touch(r.key)
			rt.stats.TransfersAvoided++
			rt.stats.BytesAvoided += wr.Size
			w.wstats.CacheHits++
			if rt.rec != nil {
				rt.rec.Emit(w.slot, obs.EvXferHit, t.ID, uint64(wr.Size))
			}
		case produced[r.key]:
			// An earlier link of this frame writes it right here on w.
			rt.stats.TransfersAvoided++
			rt.stats.BytesAvoided += wr.Size
			w.wstats.CacheHits++
			if rt.rec != nil {
				rt.rec.Emit(w.slot, obs.EvXferHit, t.ID, uint64(wr.Size))
			}
		default:
			// Ship it inline. The coordinator holds every version's bytes
			// (handleDone imports each output before Finish), so a copy
			// resident on another worker would save no hop.
			wr.Bytes = r.data
			w.mir.insert(r.key, wr.Size)
			rt.stats.Transfers++
			rt.stats.BytesToWorkers += wr.Size
			w.wstats.BytesIn += wr.Size
			if rt.rec != nil {
				rt.rec.Emit(w.slot, obs.EvXfer, t.ID, uint64(wr.Size))
			}
		}
		msg.Reads = append(msg.Reads, wr)
	}
	msg.Writes = writes

	rt.g.MarkRunning(t, w.slot)
	w.wstats.Tasks++
	if rt.rec != nil {
		rt.rec.Emit(w.slot, obs.EvStart, t.ID, 0)
	}
	return msg, inf
}

// transmit writes dispatched frames outside the coordinator lock; a send
// failure is a lost worker. It also trips the killWorkerAfter fault hook.
func (rt *RT) transmit(sends []send) {
	for _, s := range sends {
		err := s.w.conn.send(s.f)
		if err != nil {
			rt.workerLost(s.w, s.gen, fmt.Errorf("send: %w", err))
			continue
		}
		if s.kill != nil {
			s.kill.Process.Kill()
		}
	}
}

// finishLocked retires a task through the dependence tracker: newly
// released dependents join the ready queue (the caller's dispatchLocked
// loop picks them up) and taskwaiters are woken. A dependent that was
// speculatively dispatched as a chain link is already on a worker, so it
// is filtered out here instead of re-queued. Held lock: rt.mu.
func (rt *RT) finishLocked(t *core.Task, err error) {
	delete(rt.info, t)
	newly := rt.g.Finish(t, err)
	for _, n := range newly {
		if rt.chained[n] {
			delete(rt.chained, n)
			continue
		}
		rt.ready = append(rt.ready, n)
	}
	clear(newly) // may be t's own successor slot; a kept Handle must not pin them
	rt.cond.Broadcast()
}

// reader is the per-connection receive loop (one goroutine per admitted
// worker connection). gen pins the connection generation: after a rejoin
// replaces the connection, this reader's errors are stale and ignored.
func (rt *RT) reader(w *workerState, gen int) {
	defer rt.readers.Done()
	c := w.conn
	for {
		f, err := ReadFrame(c.Conn)
		if err != nil {
			rt.workerLost(w, gen, err)
			return
		}
		switch {
		case f.Done != nil:
			rt.handleDone(w, gen, f.Done)
		case f.Trace != nil:
			rt.handleTrace(w, gen, f.Trace)
		default:
			rt.workerLost(w, gen, fmt.Errorf("unexpected frame from worker"))
			return
		}
	}
}

// handleDone imports a completed task's outputs and retires it. For a
// chain, completions arrive in link order; a failed link means the worker
// aborted the rest of the chain, so the remaining queued links drain as
// skipped (each depends on the failure through the chain's edges).
func (rt *RT) handleDone(w *workerState, gen int, d *DoneMsg) {
	rt.mu.Lock()
	if w.gen != gen || w.dead {
		rt.mu.Unlock()
		return
	}
	if len(w.queue) == 0 || w.queue[0].t.ID != d.ID {
		rt.mu.Unlock()
		rt.workerLost(w, gen, fmt.Errorf("completion for unexpected task %d", d.ID))
		return
	}
	inf := w.queue[0]
	w.queue = w.queue[1:]
	if w.tb != nil {
		w.tb.events = append(w.tb.events, d.Events...)
		w.tb.dropped += d.EventsDropped
	}
	var err error
	if d.Err != "" {
		err = &remoteError{Worker: w.slot, Kernel: inf.info.kernel, Msg: d.Err, Panic: d.Panic}
		rt.stats.Failed++
	} else if len(d.Outputs) != len(inf.outs) {
		err = &remoteError{Worker: w.slot, Kernel: inf.info.kernel,
			Msg: fmt.Sprintf("got %d outputs, want %d", len(d.Outputs), len(inf.outs))}
		rt.stats.Failed++
	} else {
		// Import produced bytes onto the bound version payloads BEFORE
		// Finish: Finish releases the bindings and may immediately write
		// the version back onto canonical storage.
		for i, ob := range inf.outs {
			copy(ob.payload, d.Outputs[i])
			n := int64(len(d.Outputs[i]))
			rt.stats.BytesFromWorkers += n
			w.wstats.BytesOut += n
			w.mir.insert(ob.key, int64(len(ob.payload)))
			if rt.rec != nil {
				rt.rec.Emit(w.slot, obs.EvXfer, inf.t.ID, uint64(n))
			}
		}
	}
	if rt.rec != nil {
		rt.rec.Emit(w.slot, obs.EvEnd, inf.t.ID, 0)
	}
	rt.finishLocked(inf.t, err)
	if err != nil && len(w.queue) > 0 {
		// Chain abort: the worker sends nothing for the links after a
		// failure. Each remaining link's upstream error was just set by its
		// predecessor's Finish, so drain them as skipped right now.
		rest := w.queue
		w.queue = nil
		for _, linf := range rest {
			linf.t.MarkSkipped()
			rt.g.CountSkipped()
			rt.stats.Skipped++
			if rt.rec != nil {
				rt.rec.Emit(w.slot, obs.EvSkip, linf.t.ID, 0)
				rt.rec.Emit(w.slot, obs.EvEnd, linf.t.ID, 0)
			}
			rt.finishLocked(linf.t, &skipError{Cause: linf.t.Upstream()})
		}
	}
	sends := rt.dispatchLocked()
	rt.mu.Unlock()
	rt.transmit(sends)
}

// workerLost marks a worker dead, fails its in-flight tasks with
// workerLostError, and lets everything else keep running. Crash confinement
// falls out of the core graph: the failure propagates only along the lost
// tasks' dependence edges. With respawnLostWorkers a replacement process
// is spawned; it rejoins through the rendezvous with a cold cache.
func (rt *RT) workerLost(w *workerState, gen int, cause error) {
	rt.mu.Lock()
	if w.dead || rt.closed || w.gen != gen {
		rt.mu.Unlock()
		return
	}
	w.dead = true
	w.wstats.Lost = true
	rt.stats.WorkersLost++
	w.conn.Close()
	w.mir = newMirror(rt.cfg.cacheBytes) // its cache died with it
	queue := w.queue
	w.queue = nil
	for _, inf := range queue {
		rt.stats.Failed++
		rt.finishLocked(inf.t, &workerLostError{Worker: w.slot, Cause: cause})
	}
	if rt.cfg.respawn {
		if cmd, err := spawnWorker(rt.cfg.transport, rt.addr, w.slot, rt.secret, rt.cfg.slowExit, rt.cfg.traceCap); err == nil {
			w.cmd = cmd
			rt.cmds = append(rt.cmds, cmd)
			rt.pendingRejoins++
			// If the replacement never authenticates, stop holding the
			// ready queue for it: ErrNoWorkers beats a hang.
			time.AfterFunc(DefaultHandshakeTimeout, func() {
				rt.mu.Lock()
				if !rt.closed && w.dead && rt.pendingRejoins > 0 {
					rt.pendingRejoins--
					sends := rt.dispatchLocked()
					rt.mu.Unlock()
					rt.transmit(sends)
					return
				}
				rt.mu.Unlock()
			})
		}
	}
	sends := rt.dispatchLocked()
	rt.cond.Broadcast()
	rt.mu.Unlock()
	rt.transmit(sends)
}

// rejoinLoop re-admits workers for dead slots for the rest of the run:
// respawned replacements and externally restarted workers both arrive
// here through the same authenticated rendezvous as the initial set.
func (rt *RT) rejoinLoop(admitCh <-chan admitted) {
	for {
		select {
		case a := <-admitCh:
			rt.rejoin(a)
		case <-rt.stopCh:
			return
		}
	}
}

// rejoin re-admits one authenticated connection claiming a dead slot. The
// slot restarts with a cold cache: a fresh mirror (nothing assumed
// resident) and a bumped connection generation so stale readers of the
// old connection cannot touch it. Placement sees it as idle immediately.
func (rt *RT) rejoin(a admitted) {
	rt.mu.Lock()
	slot := a.hello.Worker
	if rt.closed || slot < 0 || slot >= len(rt.workers) || !rt.workers[slot].dead {
		rt.mu.Unlock()
		a.conn.Close()
		return
	}
	w := rt.workers[slot]
	w.conn = a.conn
	w.gen++
	w.dead = false
	w.mir = newMirror(rt.cfg.cacheBytes)
	w.queue = nil
	rt.stats.Rejoins++
	rt.openBucketLocked(w, a)
	if rt.pendingRejoins > 0 {
		rt.pendingRejoins--
	}
	rt.readers.Add(1)
	go rt.reader(w, w.gen)
	sends := rt.dispatchLocked()
	rt.mu.Unlock()
	rt.transmit(sends)
}

// Run boots a distributed execution domain with `workers` worker
// processes, runs program on the calling goroutine, waits for every task,
// and tears the domain down. The returned Stats hold the transfer and
// cache accounting; the returned error is the program's error, or the
// first task failure the final taskwait saw.
func Run(workers int, program func(*RT) error, opts ...Option) (Stats, error) {
	if workers < 1 {
		return Stats{}, fmt.Errorf("dist: need at least 1 worker, got %d", workers)
	}
	cfg := config{cacheBytes: DefaultCacheBytes, killWorker: -1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.transport == "" {
		cfg.transport = TransportUnix
	}
	if cfg.exitKill <= 0 {
		cfg.exitKill = DefaultHandshakeTimeout
	}
	if cfg.chainLimit == 0 {
		cfg.chainLimit = DefaultChainLimit
	}
	var rec *obs.Recorder
	if cfg.traceSink != nil {
		if cfg.traceCap == 0 {
			cfg.traceCap = obs.DefaultCapacity
		}
		rec = obs.NewRecorder()
	}
	secret, err := newSecret()
	if err != nil {
		return Stats{}, err
	}

	l, addr, cleanup, err := listenRendezvous(cfg.transport)
	if err != nil {
		return Stats{}, err
	}
	defer cleanup()
	defer l.Close()

	g := core.NewGraph()
	g.ConfigureRenaming(true)
	rt := &RT{
		g:       g,
		ctx:     &core.Context{},
		cfg:     cfg,
		rec:     rec,
		secret:  secret,
		addr:    addr,
		stopCh:  make(chan struct{}),
		info:    make(map[*core.Task]*taskInfo),
		chained: make(map[*core.Task]bool),
	}
	rt.cond = sync.NewCond(&rt.mu)
	rt.stats.Workers = workers

	// Reap whatever worker processes are still tracked if we bail out on
	// any path below; the normal teardown empties rt.cmds first.
	defer func() {
		rt.mu.Lock()
		leftover := rt.cmds
		rt.cmds = nil
		rt.mu.Unlock()
		for _, c := range leftover {
			c.Process.Kill()
			c.Wait()
		}
	}()

	admitCh := make(chan admitted, workers)
	go acceptLoop(l, secret, DefaultHandshakeTimeout, admitCh, rt.stopCh)
	defer close(rt.stopCh)

	for i := 0; i < workers; i++ {
		cmd, err := spawnWorker(cfg.transport, addr, i, secret, cfg.slowExit, cfg.traceCap)
		if err != nil {
			return Stats{}, err
		}
		rt.cmds = append(rt.cmds, cmd)
	}
	adm, err := collectWorkers(admitCh, workers, DefaultHandshakeTimeout)
	if err != nil {
		return Stats{}, err
	}

	if rt.rec != nil {
		epoch := time.Now()
		rt.epoch = epoch
		rt.clock = func() int64 { return time.Since(epoch).Nanoseconds() }
		rt.rec.Attach(workers, "dist", false, rt.clock)
		g.SetProbe(rt.rec)
	}
	rt.mu.Lock()
	cmds := rt.cmds
	rt.mu.Unlock()
	for i := 0; i < workers; i++ {
		w := &workerState{slot: i, cmd: cmds[i], conn: adm[i].conn,
			gen: 1, mir: newMirror(cfg.cacheBytes)}
		rt.openBucketLocked(w, adm[i])
		rt.workers = append(rt.workers, w)
	}
	for _, w := range rt.workers {
		rt.readers.Add(1)
		go rt.reader(w, w.gen)
	}
	go rt.rejoinLoop(admitCh)

	progErr := program(rt)
	twErr := rt.Taskwait()

	// Graceful drain: ask live workers to exit, close connections so the
	// reader goroutines return, and reap the processes. The kill fallback
	// (so a wedged worker cannot hang the coordinator) fires after the
	// configured exitKillDelay — generous by default, because a healthy
	// worker draining a large writeback on a loaded host is not wedged.
	rt.mu.Lock()
	rt.closed = true
	live := make([]*workerState, 0, workers)
	for _, w := range rt.workers {
		if !w.dead {
			live = append(live, w)
		}
	}
	cmds = rt.cmds
	rt.cmds = nil
	rt.mu.Unlock()
	for _, w := range live {
		w.conn.send(&Frame{Shutdown: true})
	}
	deadline := time.AfterFunc(cfg.exitKill, func() {
		rt.mu.Lock()
		for _, c := range cmds {
			if c.Process.Kill() == nil {
				rt.stats.ExitKills++
			}
		}
		rt.mu.Unlock()
	})
	for _, c := range cmds {
		c.Wait()
	}
	deadline.Stop()
	for _, w := range rt.workers {
		w.conn.Close()
	}
	rt.readers.Wait()

	if cfg.traceSink != nil && rt.rec != nil {
		cfg.traceSink(rt.mergedTrace())
	}

	rt.mu.Lock()
	rt.stats.Graph = rt.g.Stats()
	rt.stats.PerWorker = make([]WorkerStats, workers)
	for i, w := range rt.workers {
		rt.stats.PerWorker[i] = w.wstats
	}
	stats := rt.stats
	rt.mu.Unlock()

	if progErr != nil {
		return stats, progErr
	}
	return stats, twErr
}
