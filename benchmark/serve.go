package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"ompssgo/internal/obs"
	"ompssgo/internal/serve"
	"ompssgo/internal/suite/h264dec"
	"ompssgo/internal/suite/rgbcmy"
	"ompssgo/internal/suite/rotate"
	"ompssgo/ompss"
)

// serveMix drives serve.New's handler in-process with W closed-loop
// clients: callers that each wait for their reply before sending the next
// request, so the loop builds no queue and a slow server receives less
// load. Every client walks a 21-request cycle — six each of rotate, rgbcmy
// and h264dec plus three /v1/fault — in an order and under a tenant the
// seed decides. The server's inputs are its own and fixed; the three
// kernel parts mirror them so the benchmark can check every answer
// against its own RunSeq and time the sequential and Pthreads variants of
// the same work. Those, and the host probe, run between stretches of the
// loop: no client is running then, and the server's runtime waits in
// Blocking mode, so its workers are parked and not polling beside them.
type serveMix struct {
	ps       []*part // rotate, rgbcmy, h264dec, fault (no variants)
	rt       *ompss.Runtime
	srv      *serve.Server
	schedule [][]request // per client, one cycle

	samples  []reqSample // the untraced samples of the latest window
	obs      obsSum
	stats    counters
	scrapes  []int64
	rejected float64
}

type request struct {
	part   int
	tenant string
}

type reqSample struct {
	part      int
	ns        int64 // ServeHTTP, as the client sees it
	sessionNS int64 // Response.ElapsedNS: RunOmpSs + Close
	tasks     uint64
}

const cycleLen = 21

func (s *serveMix) parts() []*part { return s.ps }

// serveRuntime is one persistent runtime configured as cmd/ompss-serve
// configures it.
func serveRuntime(w int, rec *obs.Recorder) *ompss.Runtime {
	opts := []ompss.Option{ompss.Workers(w), ompss.Wait(ompss.Blocking),
		ompss.WithTuning(ompss.Tuning{Grain: ompss.Auto, StealBackoff: ompss.Auto})}
	if rec != nil {
		opts = append(opts, ompss.Observe(rec))
	}
	return ompss.New(opts...)
}

func serveConfig(rec *obs.Recorder) serve.Config {
	return serve.Config{SessionInFlight: 256, Admission: ompss.BlockOnFull, Recorder: rec}
}

func (s *serveMix) setup(e *env) error {
	// The sizes internal/serve serves (its serveRotate, serveRGBCMY and
	// serveH264 are unexported); a drift shows as a checksum mismatch.
	s.ps = []*part{
		{name: "rotate", mult: 6, inst: rotate.New(rotate.Workload{W: 256, H: 192, Angle: 0.5, Seed: 4, RowBlock: 16})},
		{name: "rgbcmy", mult: 6, inst: rgbcmy.New(rgbcmy.Workload{W: 160, H: 120, Iters: 12, Seed: 5, RowBlock: 15})},
		{name: "h264dec", mult: 6, inst: h264dec.New(h264dec.Small())},
		{name: "fault", mult: 3},
	}
	for _, p := range s.ps[:3] {
		p.reference()
	}
	s.rt = serveRuntime(e.W, nil)
	s.srv = serve.New(s.rt, serveConfig(nil))

	// The seed permutes the endpoint order, the tenant of each client and
	// where in the cycle each client starts.
	rng := rand.New(rand.NewSource(e.Seed))
	mix := rng.Perm(3)
	tenants := []string{"gold", "silver", "bronze"}
	rng.Shuffle(len(tenants), func(i, j int) { tenants[i], tenants[j] = tenants[j], tenants[i] })
	s.schedule = make([][]request, e.W)
	for c := range s.schedule {
		offset := rng.Intn(cycleLen)
		for i := 0; i < cycleLen; i++ {
			j := i + offset
			r := request{part: mix[(c+j)%3], tenant: tenants[c%len(tenants)]}
			if j%7 == 6 {
				r.part = 3
			}
			s.schedule[c] = append(s.schedule[c], r)
		}
	}
	return nil
}

func (s *serveMix) teardown() {
	if s.rt != nil {
		s.rt.Shutdown()
		s.rt = nil
	}
}

func tenantClass(tenant string) int {
	return map[string]int{"bronze": 0, "silver": 1, "gold": 2}[tenant]
}

func (s *serveMix) digest() string {
	words := []uint64{s.ps[0].want, s.ps[1].want, s.ps[2].want}
	for _, cyc := range s.schedule {
		for _, r := range cyc {
			words = append(words, uint64(r.part), uint64(tenantClass(r.tenant)))
		}
	}
	return digest(words...)
}

// issue sends one request through the handler and verifies the answer.
func (s *serveMix) issue(srv *serve.Server, r request, w *window, mu *sync.Mutex) reqSample {
	p := s.ps[r.part]
	root := w.spans.root(p.name)
	req := httptest.NewRequest(http.MethodGet, "/v1/"+p.name, nil)
	req.Header.Set("X-Tenant", r.tenant)
	rw := httptest.NewRecorder()
	call := root.child("ServeHTTP")
	srv.Handler().ServeHTTP(rw, req)
	ns := call.end().Nanoseconds()

	var resp serve.Response
	err := json.Unmarshal(rw.Body.Bytes(), &resp)
	call.childAt("session", call.start).endAfter(time.Duration(resp.ElapsedNS))
	root.end()

	var problem string
	switch {
	case err != nil:
		problem = fmt.Sprintf("undecodable body: %v", err)
	case p.inst == nil:
		// The deliberate failure: a 500 whose head task failed and whose
		// four dependents were skipped is the expected answer.
		if rw.Code != http.StatusInternalServerError || resp.Bench != "fault" || resp.Skipped != 4 {
			problem = fmt.Sprintf("status %d bench %q skipped %d, want 500 fault 4", rw.Code, resp.Bench, resp.Skipped)
		}
	case rw.Code != http.StatusOK:
		problem = fmt.Sprintf("status %d: %s", rw.Code, resp.Error)
	case resp.Checksum != fmt.Sprintf("%#x", p.want):
		problem = fmt.Sprintf("checksum %s, sequential reference %#x", resp.Checksum, p.want)
	case resp.Skipped != 0:
		problem = fmt.Sprintf("%d tasks skipped in a healthy session", resp.Skipped)
	}
	mu.Lock()
	w.check(problem == "", "%s: %s", p.name, problem)
	mu.Unlock()
	return reqSample{part: r.part, ns: ns, sessionNS: resp.ElapsedNS, tasks: resp.Tasks}
}

// load runs the closed loop against srv for d (one cycle per client when d
// is 0) and returns the samples and the time it took.
func (s *serveMix) load(srv *serve.Server, d time.Duration, w *window) ([]reqSample, time.Duration) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	per := make([][]reqSample, len(s.schedule))
	start := time.Now()
	for c := range s.schedule {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if (d == 0 && i == cycleLen) || (d > 0 && time.Since(start) >= d) {
					break
				}
				per[c] = append(per[c], s.issue(srv, s.schedule[c][i%cycleLen], w, &mu))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []reqSample
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}

// stretches is how many stretches the closed loop runs in; the sequential
// and Pthreads references of the three kernels are timed between them,
// when no client is running.
const stretches = 10

// window runs the closed loop against srv for d (one cycle per client when
// d is 0) and returns the samples and the time the clients ran for.
func (s *serveMix) window(e *env, srv *serve.Server, d time.Duration, w *window) (all []reqSample, elapsed time.Duration) {
	n := stretches
	if d == 0 {
		n = 1
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		w.host.keepUp(start)
		refs := w.spans.root("references")
		for _, p := range s.ps[:3] {
			p.refs(e.W, w, refs)
		}
		refs.end()
		smp, took := s.load(srv, d/time.Duration(n), w)
		w.rss.note()
		all = append(all, smp...)
		elapsed += took
	}
	return all, elapsed
}

func (s *serveMix) measure(e *env, d time.Duration, w *window, traced bool) {
	if traced {
		d /= 2
	}
	before := s.rt.Stats()
	s.samples, w.elapsed = s.window(e, s.srv, d, w)
	after := s.rt.Stats()
	s.stats = countersOf(after)
	s.stats.add(countersOf(before), -1)
	w.tasks = after.Graph.Finished - before.Graph.Finished
	w.taskSecs = w.elapsed.Seconds()
	w.perRequest = true
	for _, smp := range s.samples {
		s.ps[smp.part].sut = append(s.ps[smp.part].sut, smp.ns)
	}
	// One pass is one walk of the cycle by every client.
	w.passes = max(len(s.samples)/(cycleLen*len(s.schedule)), 1)

	if traced {
		// The second half runs on a twin server whose runtime carries the
		// layers' recorder; the pair gives the tracing overhead.
		rec := obs.NewRecorder(obs.Capacity(1 << 17))
		rt := serveRuntime(e.W, rec)
		twin := serve.New(rt, serveConfig(rec))
		s.load(twin, 0, &window{spans: newSpanLog(false)}) // its lazy references
		observed, _ := s.load(twin, d, w)
		rt.Shutdown()
		s.obs = obsSum{}
		s.obs.add(rec.Snapshot())
		for _, smp := range s.samples {
			s.obs.untracedNS = append(s.obs.untracedNS, smp.ns)
		}
		for _, smp := range observed {
			s.obs.tracedNS = append(s.obs.tracedNS, smp.ns)
		}
		s.scrape()
	}
}

// scrape reads GET /metrics twenty times after the window.
func (s *serveMix) scrape() {
	s.scrapes, s.rejected = nil, 0
	for i := 0; i < 20; i++ {
		rw := httptest.NewRecorder()
		start := time.Now()
		s.srv.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		s.scrapes = append(s.scrapes, time.Since(start).Nanoseconds())
		if i > 0 {
			continue
		}
		for _, line := range strings.Split(rw.Body.String(), "\n") {
			if strings.HasPrefix(line, "ompss_rejections_total") {
				f := strings.Fields(line)
				v, _ := strconv.ParseFloat(f[len(f)-1], 64)
				s.rejected += v
			}
		}
	}
}

func (s *serveMix) layers(e *env, w *window, m map[string]float64) {
	var session, overhead, all []int64
	per := make([][]int64, len(s.ps))
	var tasks uint64
	for _, smp := range s.samples {
		per[smp.part] = append(per[smp.part], smp.ns)
		all = append(all, smp.ns)
		tasks += smp.tasks
		if s.ps[smp.part].inst != nil {
			session = append(session, smp.sessionNS)
			overhead = append(overhead, smp.ns-smp.sessionNS)
		}
	}
	pair := func(name string, v []int64, div float64) {
		t, _, _ := tail(v)
		m[name+"_p50"] = medianInt(v) / div
		m[name+"_p99"] = t / div
	}
	pair("serve.session_us", session, 1e3)
	pair("serve.handler_overhead_us", overhead, 1e3)
	for i, p := range s.ps[:3] {
		t, _, _ := tail(per[i])
		m["serve."+p.name+"_p50_ms"] = medianInt(per[i]) / 1e6
		m["serve."+p.name+"_p99_ms"] = t / 1e6
	}
	t, _, _ := tail(per[3])
	m["serve.fault_p50_us"] = medianInt(per[3]) / 1e3
	m["serve.fault_p99_us"] = t / 1e3
	sorted := sortedCopy(all)
	m["serve.latency_max_ms"] = quantile(sorted, 1) / 1e6
	m["serve.tasks_per_req"] = ratio(float64(tasks), float64(len(s.samples)))
	m["serve.violations"] = float64(s.srv.Violations())
	m["serve.rejections"] = s.rejected
	m["serve.metrics_scrape_us"] = medianInt(s.scrapes) / 1e3
	s.stats.fill(m, w.passes)
	s.obs.fill(m)

	// One request-scoped session around one empty task, on the idle server
	// runtime: what every request pays before its kernel starts.
	var cycles []int64
	for i := 0; i < 2000; i++ {
		start := time.Now()
		sess := s.rt.NewSession(ompss.MaxInFlight(256))
		sess.Task(func(*ompss.TC) {})
		sess.Taskwait()
		if err := sess.Close(); err != nil {
			w.fail("session probe: %v", err)
		}
		cycles = append(cycles, time.Since(start).Nanoseconds())
	}
	m["ompss.session_cycle_us"] = medianInt(cycles) / 1e3
	allocsPerTask(func() uint64 {
		before := s.rt.Stats().Graph.Finished
		s.load(s.srv, 0, w)
		return s.rt.Stats().Graph.Finished - before
	}, m)
}
