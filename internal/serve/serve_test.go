package serve

// Server tests: per-endpoint correctness against the sequential reference,
// the deliberate-fault endpoint's containment accounting, concurrent
// mixed-tenant traffic with fault injection (zero violations is the
// isolation contract). The smoke's tests are in smoke_test.go.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ompssgo/internal/img"
	"ompssgo/internal/media"
	"ompssgo/internal/poolcheck"
	"ompssgo/internal/suite"
	"ompssgo/internal/suite/rgbcmy"
	"ompssgo/internal/suite/rotate"
	"ompssgo/ompss"
)

func newTestServer(t *testing.T, opts ...ompss.Option) (*Server, *ompss.Runtime) {
	t.Helper()
	if len(opts) == 0 {
		opts = []ompss.Option{ompss.Workers(2)}
	}
	rt := ompss.New(opts...)
	t.Cleanup(rt.Shutdown)
	return New(rt, Config{SessionInFlight: 64, Admission: ompss.BlockOnFull}), rt
}

func do(t *testing.T, srv *Server, path, tenant string) (*httptest.ResponseRecorder, Response) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("%s: bad response body %q: %v", path, rec.Body.String(), err)
	}
	return rec, resp
}

// TestKernelEndpoints checks every kernel endpoint answers 200 with the
// sequential-reference checksum and a fresh session per request.
func TestKernelEndpoints(t *testing.T) {
	srv, _ := newTestServer(t)
	seen := map[uint64]bool{}
	for _, path := range []string{"/v1/rotate", "/v1/rgbcmy", "/v1/h264dec"} {
		rec, resp := do(t, srv, path, "gold")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", path, rec.Code, rec.Body.String())
		}
		if resp.Error != "" || resp.Skipped != 0 {
			t.Fatalf("%s: error %q skipped %d", path, resp.Error, resp.Skipped)
		}
		if resp.Tasks == 0 {
			t.Fatalf("%s: response reports zero tasks", path)
		}
		if resp.Tenant != 2 {
			t.Fatalf("%s: gold request mapped to tenant class %d, want 2", path, resp.Tenant)
		}
		if seen[resp.Session] {
			t.Fatalf("%s: session ID %d reused across requests", path, resp.Session)
		}
		seen[resp.Session] = true
	}
	m := scrape(t, srv)
	if got := m[`ompss_requests_total{tenant="gold"}`]; got != 3 || srv.Violations() != 0 {
		t.Fatalf(`requests_total{tenant="gold"}=%v violations=%d, want 3 0`, got, srv.Violations())
	}
}

// TestRepeatedRequestsRecycle checks determinism across many sequential
// requests on one endpoint — each request re-derives the same checksum
// after the previous session's arena recycled.
func TestRepeatedRequestsRecycle(t *testing.T) {
	srv, _ := newTestServer(t)
	var sum string
	for i := 0; i < 8; i++ {
		rec, resp := do(t, srv, "/v1/rgbcmy", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, rec.Code, rec.Body.String())
		}
		if i == 0 {
			sum = resp.Checksum
		} else if resp.Checksum != sum {
			t.Fatalf("request %d: checksum %s, first request said %s", i, resp.Checksum, sum)
		}
	}
}

// TestRequestInputsArePrivate checks the input each request holds: rotate
// and rgbcmy images built once per server and cloned once per instance. Two
// instances held at once — one recycled from a healthy request, one built
// because the free list was empty — must not share a Pix backing array (a
// Session's Close drops the records of every key it registered, &Pix[0]
// among them), and each must equal the image rotate.New / rgbcmy.New
// synthesize, the recycled one after its kernel ran too: the benchmark's
// mirror parts check the server's answers against those.
func TestRequestInputsArePrivate(t *testing.T) {
	srv, _ := newTestServer(t)
	rw, cw := serveRotate(), serveRGBCMY()
	cases := []struct {
		path string
		want *img.RGB
		src  func(suite.Instance) *img.RGB
	}{
		{"/v1/rotate", media.Image(rw.W, rw.H, rw.Seed),
			func(in suite.Instance) *img.RGB { return in.(*rotate.Instance).Source() }},
		{"/v1/rgbcmy", media.Image(cw.W, cw.H, cw.Seed),
			func(in suite.Instance) *img.RGB { return in.(*rgbcmy.Instance).Source() }},
	}
	for _, c := range cases {
		if rec, resp := do(t, srv, c.path, ""); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", c.path, rec.Code, resp.Error)
		}
		r := srv.kernels[c.path]
		if n := len(r.free); n != 1 {
			t.Fatalf("%s: %d idle instances after one healthy request, want 1", c.path, n)
		}
		x, y := r.take(), r.take()
		a, b := c.src(x), c.src(y)
		if &a.Pix[0] == &b.Pix[0] {
			t.Errorf("%s: two instances held at once share one Pix backing array", c.path)
		}
		for i, im := range []*img.RGB{a, b} {
			if im.W != c.want.W || im.H != c.want.H || !bytes.Equal(im.Pix, c.want.Pix) {
				t.Errorf("%s: instance %d's image differs from media.Image of the workload", c.path, i)
			}
		}
		r.keep(x)
		r.keep(y)
	}
}

// faulty is a kernel instance whose OmpSs run goes wrong: it panics, or it
// returns a checksum off by one, which the server answers as a violation.
// Before it panics it spawns one task over a key of its own, so the
// request's session holds a dependence record and, on a runtime whose lone
// thread has not helped yet, an unstarted task. held, if set, receives the
// session.
type faulty struct {
	suite.Instance
	panics bool
	held   **ompss.Session
}

func (f faulty) RunOmpSs(api ompss.API) uint64 {
	if f.panics {
		var x int
		api.Task(func(*ompss.TC) { x++ }, ompss.Out(&x))
		if f.held != nil {
			*f.held = api.(*ompss.Session)
		}
		panic("deliberate kernel fault")
	}
	return f.Instance.RunOmpSs(api) + 1
}

// holdWindow fills rt's run-ahead window, MaxInFlight(1) at New, with a
// gated task running on its background worker, until release is called or
// the test ends.
func holdWindow(t *testing.T, rt *ompss.Runtime) (release func()) {
	t.Helper()
	started, gate := make(chan struct{}), make(chan struct{})
	rt.Task(func(*ompss.TC) { close(started); <-gate })
	release = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // before the runtime's Shutdown
	<-started
	return release
}

// TestUnhealthyRequestsDropTheirInstance checks that only a healthy 200
// puts a request's instance back on its endpoint's free list. A request
// refused at the door (429) builds none, and one whose kernel answered a
// wrong checksum (500) or panicked drops its own: its buffers are in an
// unknown state and must not serve a later request. A failed request's
// session is closed all the same, a panicking kernel's too: no task stays in
// flight and no dependence record outlives the request.
func TestUnhealthyRequestsDropTheirInstance(t *testing.T) {
	paths := []string{"/v1/rotate", "/v1/rgbcmy", "/v1/h264dec"}

	t.Run("refused", func(t *testing.T) {
		rt := ompss.New(ompss.Workers(2), ompss.MaxInFlight(1))
		t.Cleanup(rt.Shutdown)
		srv := New(rt, Config{SessionInFlight: 2, Admission: ompss.RejectOnFull})
		holdWindow(t, rt)
		for _, path := range paths {
			r := srv.kernels[path]
			built := 0
			healthy := r.build
			r.build = func() suite.Instance { built++; return healthy() }
			if rec, resp := do(t, srv, path, ""); rec.Code != http.StatusTooManyRequests {
				t.Fatalf("%s: status %d (%s), want 429", path, rec.Code, resp.Error)
			}
			if built != 0 {
				t.Errorf("%s: a refused request built %d instances", path, built)
			}
			if n := len(r.free); n != 0 {
				t.Errorf("%s: a refused request put an instance on the free list (%d idle)", path, n)
			}
		}
	})

	for _, panics := range []bool{false, true} {
		t.Run(fmt.Sprintf("panics=%v", panics), func(t *testing.T) {
			// The runtime's one thread runs no task until somebody waits, so
			// a panicking kernel's task is still unstarted when the panic
			// leaves the handler: only its session's Close skips it and drops
			// its dependence record.
			srv, rt := newTestServer(t, ompss.Workers(1))
			base := rt.DepRecords()
			for _, path := range paths {
				r := srv.kernels[path]
				healthy := r.build
				var sess *ompss.Session
				r.build = func() suite.Instance { return faulty{Instance: healthy(), panics: panics, held: &sess} }
				rec := httptest.NewRecorder()
				func() {
					defer func() {
						if p := recover(); (p != nil) != panics {
							t.Errorf("%s: handler panic %v, want a panic: %v", path, p, panics)
						}
					}()
					srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				}()
				if !panics && rec.Code != http.StatusInternalServerError {
					t.Errorf("%s: status %d for a wrong checksum, want 500", path, rec.Code)
				}
				if n := len(r.free); n != 0 {
					t.Errorf("%s: a failed request put its instance back (%d idle)", path, n)
				}
				if sess != nil && sess.Stats().InFlight != 0 {
					t.Errorf("%s: the panicking request's session has %d tasks in flight", path, sess.Stats().InFlight)
				}
				if n := rt.DepRecords(); n != base {
					t.Errorf("%s: %d dependence records live after the failed request, %d before", path, n, base)
				}
				// The control: a healthy request's instance goes back.
				r.build = healthy
				if rec, resp := do(t, srv, path, ""); rec.Code != http.StatusOK {
					t.Fatalf("%s: status %d (%s) after the fault", path, rec.Code, resp.Error)
				}
				if n := len(r.free); n != 1 {
					t.Errorf("%s: %d idle instances after a healthy request, want 1", path, n)
				}
			}
		})
	}
}

// TestAdmissionRefusalsAnswer429 is the door under RejectOnFull. In the
// first leg a gated task holds the runtime's one-task run-ahead window, so
// every kernel endpoint and /v1/fault must answer 429 with a Retry-After
// before it builds an instance or opens a session: no task is submitted, the
// refusal is counted as a rejection and never as an isolation violation.
// Once the gate opens and the task drains, every endpoint answers 200. The
// second leg runs the endpoints concurrently on a small window, where either
// answer is legitimate.
func TestAdmissionRefusalsAnswer429(t *testing.T) {
	paths := []string{"/v1/rotate", "/v1/rgbcmy", "/v1/h264dec"}
	newServer := func(window int) *Server {
		rt := ompss.New(ompss.Workers(2), ompss.MaxInFlight(window))
		t.Cleanup(rt.Shutdown)
		return New(rt, Config{SessionInFlight: 64, Admission: ompss.RejectOnFull})
	}

	t.Run("worker-held", func(t *testing.T) {
		srv := newServer(1)
		release := holdWindow(t, srv.rt)
		submitted := srv.rt.Stats().Graph.Submitted
		built := 0
		for _, path := range paths {
			r := srv.kernels[path]
			healthy := r.build
			r.build = func() suite.Instance { built++; return healthy() }
		}
		for _, path := range append(paths, "/v1/fault") {
			rec, resp := do(t, srv, path, "gold")
			if rec.Code != http.StatusTooManyRequests {
				t.Fatalf("%s: status %d (%s), want 429", path, rec.Code, resp.Error)
			}
			if rec.Header().Get("Retry-After") == "" {
				t.Errorf("%s: 429 without Retry-After", path)
			}
		}
		if n := srv.rt.Stats().Graph.Submitted; n != submitted {
			t.Errorf("refused requests submitted %d tasks", n-submitted)
		}
		if built != 0 {
			t.Errorf("refused requests built %d instances", built)
		}
		for _, path := range paths {
			if n := len(srv.kernels[path].free); n != 0 {
				t.Errorf("%s: %d idle instances after refusals", path, n)
			}
		}
		m := scrape(t, srv)
		if got := m[`ompss_rejections_total{tenant="gold"}`]; got != float64(len(paths)+1) {
			t.Errorf(`rejections_total{tenant="gold"} = %v, want %d`, got, len(paths)+1)
		}
		if v := srv.Violations(); v != 0 || m[`ompss_violations_total{tenant="gold"}`] != 0 {
			t.Errorf("refusals counted as %d isolation violations", v)
		}

		release()
		srv.rt.Taskwait()
		for _, path := range paths {
			if rec, resp := do(t, srv, path, "gold"); rec.Code != http.StatusOK {
				t.Errorf("%s: status %d (%s) after the window drained, want 200", path, rec.Code, resp.Error)
			}
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		srv := newServer(4)
		var wg sync.WaitGroup
		for c := 0; c < 6; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					path := paths[(c+i)%len(paths)]
					if rec, resp := do(t, srv, path, ""); rec.Code != http.StatusOK && rec.Code != http.StatusTooManyRequests {
						t.Errorf("%s: status %d (%s), want 200 or 429", path, rec.Code, resp.Error)
					}
				}
			}()
		}
		wg.Wait()
		if v := srv.Violations(); v != 0 {
			t.Fatalf("%d isolation violations under RejectOnFull", v)
		}
	})
}

// TestFaultEndpoint checks the deliberate-failure endpoint: 500, the
// injected error in the body, the skip cascade contained to the request's
// session, and no violation counted.
func TestFaultEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	rec, resp := do(t, srv, "/v1/fault", "bronze")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("fault status %d, want 500", rec.Code)
	}
	if !strings.Contains(resp.Error, "injected fault") {
		t.Fatalf("fault error %q does not carry the injected failure", resp.Error)
	}
	if resp.Skipped != 4 {
		t.Fatalf("fault skipped %d tasks, want the 4 dependents", resp.Skipped)
	}
	m := scrape(t, srv)
	if got := m[`ompss_faults_total{tenant="bronze"}`]; got != 1 || srv.Violations() != 0 {
		t.Fatalf(`faults_total{tenant="bronze"}=%v violations=%d, want 1 0`, got, srv.Violations())
	}
	// The runtime stays healthy for the next request.
	if rec, _ := do(t, srv, "/v1/rotate", ""); rec.Code != http.StatusOK {
		t.Fatalf("request after fault: status %d", rec.Code)
	}
}

// TestConcurrentMixedTraffic is the isolation contract end to end:
// concurrent clients across all endpoints and tenant classes, with fault
// requests interleaved, must produce zero violations and all-correct
// kernel responses.
func TestConcurrentMixedTraffic(t *testing.T) {
	srv, _ := newTestServer(t, ompss.Workers(4))
	paths := []string{"/v1/rotate", "/v1/rgbcmy", "/v1/h264dec"}
	tenants := []string{"gold", "silver", "bronze"}
	const clients = 6
	const perClient = 5
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				path := paths[(c+i)%len(paths)]
				if i == perClient/2 {
					path = "/v1/fault"
				}
				rec, resp := do(t, srv, path, tenants[c%len(tenants)])
				if path == "/v1/fault" {
					if rec.Code != http.StatusInternalServerError {
						t.Errorf("client %d: fault status %d", c, rec.Code)
					}
					continue
				}
				if rec.Code != http.StatusOK {
					t.Errorf("client %d %s: status %d error %q", c, path, rec.Code, resp.Error)
				}
			}
		}()
	}
	wg.Wait()
	if v := srv.Violations(); v != 0 {
		t.Fatalf("%d isolation violations under mixed traffic", v)
	}
	m := scrape(t, srv)
	var requests, faults float64
	for _, tenant := range tenants {
		requests += m[`ompss_requests_total{tenant="`+tenant+`"}`]
		faults += m[`ompss_faults_total{tenant="`+tenant+`"}`]
	}
	if requests != clients*(perClient-1) || faults != clients {
		t.Fatalf("requests_total=%v faults_total=%v, want %d %d",
			requests, faults, clients*(perClient-1), clients)
	}
}

// TestStatsAndHealth checks the operational endpoints: /healthz answers,
// and the server's counts are on /metrics (there is no /v1/stats).
func TestStatsAndHealth(t *testing.T) {
	srv, _ := newTestServer(t)
	do(t, srv, "/v1/rotate", "")

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}

	m := scrape(t, srv)
	if m[`ompss_requests_total{tenant="bronze"}`] != 1 || m[`ompss_tasks_finished_total`] == 0 {
		t.Fatalf(`requests_total{tenant="bronze"}=%v tasks_finished_total=%v, want 1 and nonzero`,
			m[`ompss_requests_total{tenant="bronze"}`], m[`ompss_tasks_finished_total`])
	}
}

// TestDrain pins the graceful-shutdown contract: Drain flips admission off
// (new session-bearing requests answer 503 with a Retry-After derived from
// the remaining drain budget), waits for the live session to finish, and
// returns nil once the server is quiescent. A deadline that expires while a
// session is live returns the context error without abandoning the count.
func TestDrain(t *testing.T) {
	srv, _ := newTestServer(t)

	// A live "session": admission taken directly, as a handler would.
	if !srv.beginRequest(httptest.NewRecorder(), 0) {
		t.Fatal("beginRequest refused before any drain")
	}

	// Drain in the background with an 8s budget; it must block on the live
	// session (and returns well before the deadline once it ends below).
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer drainCancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(drainCtx) }()
	for draining := false; !draining; {
		time.Sleep(time.Millisecond)
		srv.liveMu.Lock()
		draining = srv.draining
		srv.liveMu.Unlock()
	}

	// While draining, kernel and fault endpoints refuse with 503 and a
	// Retry-After hint no longer than the drain budget itself.
	req := httptest.NewRequest(http.MethodGet, "/v1/rotate", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining kernel request: status %d, want 503", rec.Code)
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil {
		t.Fatalf("draining 503 Retry-After %q: %v", rec.Header().Get("Retry-After"), err)
	}
	if ra < 1 || ra > 8 {
		t.Fatalf("Retry-After = %d, want within the 8s drain budget", ra)
	}
	// A drain budget beyond the cap clamps to maxRetryAfter.
	srv.liveMu.Lock()
	srv.drainDeadline = time.Now().Add(10 * time.Minute)
	srv.liveMu.Unlock()
	if got, want := srv.retryAfter(), int(maxRetryAfter/time.Second); got != want {
		t.Fatalf("Retry-After for a 10m budget = %d, want capped at %d", got, want)
	}
	srv.liveMu.Lock()
	srv.drainDeadline = time.Time{}
	srv.liveMu.Unlock()
	if got := srv.retryAfter(); got != 1 {
		t.Fatalf("Retry-After for an unbounded drain = %d, want the 1s floor", got)
	}
	// Health stays up for liveness probes.
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("draining health check: status %d, want 200", rec.Code)
	}

	// A second Drain with an expired deadline reports the live session.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Drain(expired); err == nil {
		t.Fatal("Drain with cancelled ctx and a live session returned nil")
	}

	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with a session still live", err)
	case <-time.After(20 * time.Millisecond):
	}

	srv.endRequest()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain after last session ended: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Drain did not return after the last session ended")
	}
}

// soak gates the session-churn soak: thousands of request sessions are
// slow under -race, so the leg only runs when asked for explicitly
// (make soak / the CI dist-smoke job).
var soak = flag.Bool("soak", false, "run the session-churn soak")

// TestSoakSessionChurn is the arena-leak probe: after a burst of
// session-per-request churn (kernels and faults, concurrently), the
// runtime's live dependence records must return to the pre-churn baseline —
// request sessions release their arenas at Close, so sustained serving
// cannot grow the tracker.
func TestSoakSessionChurn(t *testing.T) {
	if !*soak {
		t.Skip("session-churn soak; run with -soak")
	}
	srv, rt := newTestServer(t)
	// Nothing is in flight yet, and the server spawns only in request
	// sessions, whose Close gives every record back.
	pool := poolcheck.Active()
	baseOut := pool.Outstanding()

	// Baseline after one warm-up request (the reference cache and any
	// lazily-built shard state must not count as a leak).
	if rec, _ := do(t, srv, "/v1/rotate", ""); rec.Code != http.StatusOK {
		t.Fatalf("warm-up: status %d", rec.Code)
	}
	base := rt.DepRecords()

	const clients, perClient = 4, 60
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			paths := []string{"/v1/rotate", "/v1/rgbcmy", "/v1/h264dec", "/v1/fault"}
			tenants := []string{"gold", "silver", "bronze"}
			for i := 0; i < perClient; i++ {
				path := paths[(c+i)%len(paths)]
				req := httptest.NewRequest(http.MethodGet, path, nil)
				req.Header.Set("X-Tenant", tenants[i%len(tenants)])
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, req)
				wantFault := path == "/v1/fault"
				if wantFault && rec.Code != http.StatusInternalServerError {
					panic(fmt.Sprintf("fault request: status %d", rec.Code))
				}
				if !wantFault && rec.Code != http.StatusOK {
					panic(fmt.Sprintf("%s: status %d body %s", path, rec.Code, rec.Body.String()))
				}
			}
		}()
	}
	wg.Wait()

	if v := srv.Violations(); v != 0 {
		t.Fatalf("soak observed %d isolation violations", v)
	}
	if n := rt.DepRecords(); n != base {
		t.Fatalf("dependence records grew across churn: baseline %d, after %d", base, n)
	}
	if n := pool.Await(baseOut); n != baseOut {
		t.Fatalf("task records out of the pool grew across churn: baseline %d, after %d", baseOut, n)
	}
	t.Logf("soak: %d sessions churned, records steady at %d",
		clients*perClient+1, base)
}
