// Package serve hosts the suite's media kernels as a long-lived multi-tenant
// HTTP service on one shared ompss.Runtime — "OmpSs as a server". Every
// request opens its own ompss.Session (error domain, tenant class, admission
// budget, request-scoped arena), runs one kernel through the same RunOmpSs
// body the batch harness measures, verifies the result against a cached
// sequential reference, and closes the session. The checksum check doubles
// as the isolation oracle: a foreign failure cascade, a leaked cancellation,
// or a dependence-record mixup shows up as a wrong answer or a nonzero skip
// count in an innocent request, which the server counts as a violation and
// answers 500. A request refused at the door (RejectOnFull, window full)
// runs no task. Smoke is the HTTP client that gates on all of this.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ompssgo/internal/img"
	"ompssgo/internal/media"
	"ompssgo/internal/obs"
	"ompssgo/internal/obs/metrics"
	"ompssgo/internal/suite"
	"ompssgo/internal/suite/h264dec"
	"ompssgo/internal/suite/rgbcmy"
	"ompssgo/internal/suite/rotate"
	"ompssgo/ompss"
)

// Config parameterizes the server's session policy.
type Config struct {
	// SessionInFlight is the per-request-session MaxInFlight budget
	// (0 = unlimited).
	SessionInFlight int
	// Admission is the door policy while the runtime's run-ahead window is
	// full: BlockOnFull admits, RejectOnFull answers 429 (beginRequest).
	Admission ompss.AdmissionMode
	// Recorder is the trace recorder the hosting runtime was built with
	// (ompss.Observe), if any. The metrics plane reads its ring-drop count.
	Recorder *obs.Recorder
}

// freeInstances bounds each endpoint's free list: how many idle instances
// it keeps for later requests. It matches the smoke's client count
// (smokeClients); a burst wider than that builds the extra instances and
// drops them when it ends.
const freeInstances = 8

// runner is one kernel endpoint. Its input — the seeded source image of
// rotate and rgbcmy, the encoded h264 bitstream — is fixed per server and
// built once; build makes an instance over it: a clone of the image, a fresh
// parse of the read-only bitstream. A request takes an idle instance from
// the free list, or builds one, and holds it alone: only its session
// registers the instance's &Pix[0], and Close drops that record, so
// concurrent sessions never register the same key. The instance goes back
// on the list only after a healthy 200, and the next request reuses its
// image clone and its OmpSs buffers, which the kernel resets at the start of
// every run. A request that panicked or answered a violation drops its
// instance. The free list is a buffered channel, not a sync.Pool: a Pool
// empties at every GC, so what it retains — and the server's resident set
// with it — would follow the collector instead of the traffic.
type runner struct {
	name  string
	build func() suite.Instance
	free  chan suite.Instance
	ref   func() uint64 // the sequential reference, computed on first use
}

func newRunner(name string, build func() suite.Instance) *runner {
	return &runner{
		name:  name,
		build: build,
		free:  make(chan suite.Instance, freeInstances),
		ref:   sync.OnceValue(func() uint64 { return build().RunSeq() }),
	}
}

// take returns an idle instance, or a new one when none is idle.
func (r *runner) take() suite.Instance {
	select {
	case in := <-r.free:
		return in
	default:
		return r.build()
	}
}

// keep puts the instance of a healthy request back on the free list, or
// drops it when the list is full.
func (r *runner) keep(in suite.Instance) {
	select {
	case r.free <- in:
	default:
	}
}

// Server is the HTTP front end over one shared runtime.
type Server struct {
	rt      *ompss.Runtime
	cfg     Config
	mux     *http.ServeMux
	kernels map[string]*runner // by path

	violations atomic.Uint64 // checksum mismatches / unexpected skips

	// Live metrics plane (metrics.go): the registry behind GET /metrics and
	// the per-tenant-class series the request path increments.
	reg     *metrics.Registry
	tenants [3]tenantSeries

	// Drain state: liveMu guards these fields so admission and Drain agree
	// on the draining flag and the live-session count atomically.
	liveMu        sync.Mutex
	liveCond      *sync.Cond
	liveN         int
	draining      bool
	drainDeadline time.Time // Drain ctx's deadline, zero if unbounded
}

// Workloads served per endpoint: sized between the suite's Small (too tiny
// to exercise concurrency) and Default (too slow for request latency) —
// a few milliseconds of task work per request.
func serveRotate() rotate.Workload {
	return rotate.Workload{W: 256, H: 192, Angle: 0.5, Seed: 4, RowBlock: 16}
}

func serveRGBCMY() rgbcmy.Workload {
	return rgbcmy.Workload{W: 160, H: 120, Iters: 12, Seed: 5, RowBlock: 15}
}

func serveH264() h264dec.Workload { return h264dec.Small() }

// New builds a Server over rt. The runtime is shared and long-lived; the
// caller owns its lifecycle (Shutdown after the listener stops).
func New(rt *ompss.Runtime, cfg Config) *Server {
	s := &Server{rt: rt, cfg: cfg, mux: http.NewServeMux(), kernels: runners()}
	for path, r := range s.kernels {
		s.mux.HandleFunc(path, func(w http.ResponseWriter, req *http.Request) {
			s.handleKernel(w, req, r)
		})
	}
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/v1/fault", s.handleFault)
	s.liveCond = sync.NewCond(&s.liveMu)
	s.initMetrics()
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// runners builds the kernel endpoints by path, each over its own input. The
// h264 bitstream is encoded here (expensive) and parsed per instance
// (cheap). The two source images are built on their endpoint's first
// request, so a server starts no slower for them. Each endpoint's sequential
// reference is computed on its first request too; the endpoints wait on no
// lock of each other's.
func runners() map[string]*runner {
	rw, cw, hw := serveRotate(), serveRGBCMY(), serveH264()
	rotSrc, cmySrc := lazyImage(rw.W, rw.H, rw.Seed), lazyImage(cw.W, cw.H, cw.Seed)
	bs := h264dec.New(hw).Stream()
	return map[string]*runner{
		"/v1/rotate": newRunner("rotate", func() suite.Instance {
			return rotate.NewFromImage(rw, rotSrc().Clone())
		}),
		"/v1/rgbcmy": newRunner("rgbcmy", func() suite.Instance {
			return rgbcmy.NewFromImage(cw, cmySrc().Clone())
		}),
		"/v1/h264dec": newRunner("h264dec", func() suite.Instance {
			return h264dec.NewFromStream(hw, bs)
		}),
	}
}

// lazyImage returns the seeded source image, built on the first call.
func lazyImage(w, h int, seed int64) func() *img.RGB {
	return sync.OnceValue(func() *img.RGB { return media.Image(w, h, seed) })
}

// Handler returns the server's HTTP handler (also usable in-process — the
// benchmark drives it without a listener).
func (s *Server) Handler() http.Handler { return s.mux }

// beginRequest is the door of every session-bearing request: it counts the
// request live, or answers the refusal itself and returns false — 503 while
// the server drains, 429 under RejectOnFull while the runtime's run-ahead
// window is full. A refused request takes no instance and opens no session.
func (s *Server) beginRequest(w http.ResponseWriter, tenant int) bool {
	full := s.cfg.Admission == ompss.RejectOnFull && s.rt.WindowFull()
	s.liveMu.Lock()
	draining := s.draining
	if !draining && !full {
		s.liveN++
	}
	s.liveMu.Unlock()
	switch {
	case draining:
		s.writeUnavailable(w)
	case full:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"status": "run-ahead window full"})
	default:
		return true
	}
	s.tenants[tenant].rejections.Inc()
	return false
}

func (s *Server) endRequest() {
	s.liveMu.Lock()
	s.liveN--
	if s.liveN == 0 {
		s.liveCond.Broadcast()
	}
	s.liveMu.Unlock()
}

// Drain flips the server into draining mode — new session-bearing requests
// answer 503 immediately — and waits for every live session to finish.
// It returns nil when the server is quiescent, or ctx's error if the
// deadline expires first (live sessions keep running; the caller decides
// whether to hard-stop). Idempotent: a second Drain just waits.
func (s *Server) Drain(ctx context.Context) error {
	s.liveMu.Lock()
	s.draining = true
	if dl, ok := ctx.Deadline(); ok {
		s.drainDeadline = dl
	}
	s.liveMu.Unlock()

	// The cond has no deadline-aware wait; a watcher converts ctx expiry
	// into a broadcast so the wait loop can re-check and bail.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			s.liveCond.Broadcast()
		case <-done:
		}
	}()

	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	for s.liveN > 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("drain: %d sessions still live: %w", s.liveN, err)
		}
		s.liveCond.Wait()
	}
	return nil
}

// Violations returns the number of isolation violations observed so far: a
// kernel response whose checksum diverged from the sequential reference, or
// a healthy request session that finished with skipped tasks (a skip can
// only be induced by a failure or cancellation, and a healthy session has
// neither — so any skip means another session's cascade leaked in).
func (s *Server) Violations() uint64 { return s.violations.Load() }

// Response is the JSON body of a kernel endpoint.
type Response struct {
	Bench     string `json:"bench"`
	Session   uint64 `json:"session"`
	Tenant    int    `json:"tenant"`
	Checksum  string `json:"checksum"`
	Tasks     uint64 `json:"tasks"`
	Skipped   uint64 `json:"skipped"`
	ElapsedNS int64  `json:"elapsed_ns"`
	Error     string `json:"error,omitempty"`
}

// tenantClass maps the X-Tenant header onto the scheduler's priority levels.
func tenantClass(h string) int {
	switch h {
	case "gold":
		return 2
	case "silver":
		return 1
	default:
		return 0
	}
}

func (s *Server) sessionOpts(tenant int) []ompss.Option {
	opts := []ompss.Option{ompss.Tenant(tenant)}
	if s.cfg.SessionInFlight > 0 {
		opts = append(opts, ompss.MaxInFlight(s.cfg.SessionInFlight))
	}
	return opts
}

func (s *Server) handleKernel(w http.ResponseWriter, req *http.Request, r *runner) {
	tenant := tenantClass(req.Header.Get("X-Tenant"))
	if !s.beginRequest(w, tenant) {
		return
	}
	defer s.endRequest()
	ts := &s.tenants[tenant]
	ts.requests.Inc()
	var marks phaseMarks
	marks[phaseInput] = time.Now()
	want := r.ref()
	in := r.take()

	marks[phaseRun] = time.Now()
	sess := s.rt.NewSession(s.sessionOpts(tenant)...)
	defer sess.Close() // idempotent; closes the session of a panicking kernel
	start := time.Now()
	got := in.RunOmpSs(sess)
	marks[phaseClose] = time.Now()
	err := sess.Close()
	marks[phaseEncode] = time.Now()
	elapsed := marks[phaseEncode].Sub(start)
	st := sess.Stats()
	ts.latency.Observe(elapsed.Nanoseconds())

	resp := Response{
		Bench:     r.name,
		Session:   sess.ID(),
		Tenant:    tenant,
		Checksum:  hexChecksum(got),
		Tasks:     st.Finished,
		Skipped:   st.Skipped,
		ElapsedNS: elapsed.Nanoseconds(),
	}
	switch {
	case got != want:
		s.violations.Add(1)
		ts.violations.Inc()
		resp.Error = fmt.Sprintf("isolation violation: checksum %#x, reference %#x", got, want)
		writeJSON(w, http.StatusInternalServerError, resp)
	case err != nil || st.Skipped > 0:
		s.violations.Add(1)
		ts.violations.Inc()
		resp.Error = fmt.Sprintf("isolation violation: healthy session closed with err=%v skipped=%d", err, st.Skipped)
		writeJSON(w, http.StatusInternalServerError, resp)
	default:
		r.keep(in)
		writeJSON(w, http.StatusOK, resp)
	}
	marks[numPhases] = time.Now()
	ts.observePhases(&marks)
}

// hexChecksum formats a checksum as fmt's %#x does ("0x" and lower-case hex
// digits, "0x0" for zero), without fmt's boxing and state on every response.
func hexChecksum(v uint64) string {
	var buf [18]byte
	return string(strconv.AppendUint(append(buf[:0], "0x"...), v, 16))
}

// handleFault is the deliberate-failure endpoint: a small dependence chain
// whose head fails, so the session's skip cascade skips the rest.
// The request answers 500 by design — concurrent kernel requests returning
// correct checksums while this endpoint fires is the isolation demo.
func (s *Server) handleFault(w http.ResponseWriter, req *http.Request) {
	tenant := tenantClass(req.Header.Get("X-Tenant"))
	if !s.beginRequest(w, tenant) {
		return
	}
	defer s.endRequest()
	s.tenants[tenant].faults.Inc()
	sess := s.rt.NewSession(s.sessionOpts(tenant)...)
	start := time.Now()
	var x int
	tc := sess.Master()
	tc.Go(func(*ompss.TC) error {
		return fmt.Errorf("injected fault")
	}, ompss.Out(&x), ompss.Label("fault-head"))
	for i := 0; i < 4; i++ {
		tc.Task(func(*ompss.TC) { x++ }, ompss.InOut(&x), ompss.Label("fault-dep"))
	}
	// TaskwaitCtx drains the session and reports the round's failure (a
	// plain Taskwait would consume the round and leave Close nothing to
	// return); Close then releases a clean session. On the session's TC,
	// the context would cancel this session only.
	err := tc.TaskwaitCtx(context.Background())
	sess.Close()
	st := sess.Stats()
	writeJSON(w, http.StatusInternalServerError, Response{
		Bench:     "fault",
		Session:   sess.ID(),
		Tenant:    tenant,
		Tasks:     st.Finished,
		Skipped:   st.Skipped,
		ElapsedNS: time.Since(start).Nanoseconds(),
		Error:     fmt.Sprintf("%v", err),
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// maxRetryAfter caps the drain-derived Retry-After hint: past this, a load
// balancer should have moved on to another instance anyway.
const maxRetryAfter = 30 * time.Second

// retryAfter derives the 503 Retry-After hint from the drain budget: the
// seconds left until Drain's deadline (rounded up, capped), after which the
// server is either quiescent or being hard-stopped — either way, retrying
// here sooner is pointless. An unbounded drain keeps the 1s floor.
func (s *Server) retryAfter() int {
	s.liveMu.Lock()
	dl := s.drainDeadline
	s.liveMu.Unlock()
	if dl.IsZero() {
		return 1
	}
	rem := time.Until(dl)
	if rem > maxRetryAfter {
		rem = maxRetryAfter
	}
	secs := int((rem + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// writeUnavailable is the draining answer: 503 with a Retry-After so load
// balancers and polite clients move on without treating it as a fault.
func (s *Server) writeUnavailable(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
