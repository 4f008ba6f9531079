package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"
)

// The load generator drives the kernel endpoints with concurrent
// closed-loop clients for a fixed duration and folds the outcome into a
// ServeReport — request latency percentiles (p50/p90/p99), request and task
// throughput, and the isolation violation count. It is the only client
// that reaches a booted server over real HTTP (-target); the measured
// service numbers are the benchmark's serve-mix workload.

// LoadOptions parameterizes one load run.
type LoadOptions struct {
	// Duration is how long the clients run (default 2s).
	Duration time.Duration
	// Conc is the number of closed-loop clients (default 4). Each issues
	// its next request as soon as the previous one answers.
	Conc int
	// Mix is the endpoint cycle each client walks (default rotate, rgbcmy,
	// h264dec). Entries are paths ("/v1/rotate").
	Mix []string
	// FaultEvery injects a /v1/fault request every Nth request per client
	// (0 = none): the isolation stressor.
	FaultEvery int
	// Tenants is cycled across clients as the X-Tenant header (default
	// gold/silver/bronze).
	Tenants []string
	// Target, when non-empty, load-tests a remote server at this base URL
	// over real HTTP instead of invoking the handler in-process.
	Target string
}

// EndpointLoad is the per-endpoint latency breakdown.
type EndpointLoad struct {
	Path     string `json:"path"`
	Requests int64  `json:"requests"`
	OK       int64  `json:"ok"`
	P50NS    int64  `json:"p50_ns"`
	P99NS    int64  `json:"p99_ns"`
}

// ServeReport is the document ompss-serve -load -o writes.
type ServeReport struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`

	Workers         int   `json:"workers"`
	SessionInFlight int   `json:"session_inflight"`
	GlobalInFlight  int   `json:"global_inflight"`
	Conc            int   `json:"conc"`
	DurationNS      int64 `json:"duration_ns"`

	Requests   int64  `json:"requests"`
	OK2xx      int64  `json:"ok_2xx"`
	Faults5xx  int64  `json:"faults_5xx"` // deliberate /v1/fault responses
	Rejected   int64  `json:"rejected"`   // 429: refused at the door, window full
	Errors     int64  `json:"errors"`     // unexpected non-2xx / transport errors
	Violations uint64 `json:"violations"`

	P50NS int64 `json:"p50_ns"`
	P90NS int64 `json:"p90_ns"`
	P99NS int64 `json:"p99_ns"`
	MaxNS int64 `json:"max_ns"`

	TasksFinished  uint64  `json:"tasks_finished"`
	TasksPerSec    float64 `json:"tasks_per_sec"`
	RequestsPerSec float64 `json:"requests_per_sec"`

	PerEndpoint []EndpointLoad `json:"per_endpoint"`
}

// sample is one client-side request measurement.
type sample struct {
	path string
	ns   int64
	code int
	err  error
}

// RunLoad drives srv with opts and returns the report. workers and
// globalInFlight are recorded in the report for provenance (the server's
// runtime already embodies them).
func RunLoad(srv *Server, opts LoadOptions, workers, globalInFlight int) *ServeReport {
	if opts.Duration <= 0 {
		opts.Duration = 2 * time.Second
	}
	if opts.Conc <= 0 {
		opts.Conc = 4
	}
	if len(opts.Mix) == 0 {
		opts.Mix = []string{"/v1/rotate", "/v1/rgbcmy", "/v1/h264dec"}
	}
	if len(opts.Tenants) == 0 {
		opts.Tenants = []string{"gold", "silver", "bronze"}
	}

	tasks0 := srv.TasksFinished()
	deadline := time.Now().Add(opts.Duration)
	results := make([][]sample, opts.Conc)
	done := make(chan int, opts.Conc)
	start := time.Now()
	for c := 0; c < opts.Conc; c++ {
		c := c
		go func() {
			var out []sample
			tenant := opts.Tenants[c%len(opts.Tenants)]
			for i := 0; time.Now().Before(deadline); i++ {
				path := opts.Mix[(c+i)%len(opts.Mix)]
				if opts.FaultEvery > 0 && i%opts.FaultEvery == opts.FaultEvery-1 {
					path = "/v1/fault"
				}
				out = append(out, issue(srv, opts.Target, path, tenant))
			}
			results[c] = out
			done <- c
		}()
	}
	for c := 0; c < opts.Conc; c++ {
		<-done
	}
	elapsed := time.Since(start)

	rep := &ServeReport{
		Schema:          "ompssgo/bench-serve/v1",
		GoVersion:       runtime.Version(),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		NumCPU:          runtime.NumCPU(),
		Workers:         workers,
		SessionInFlight: srv.cfg.SessionInFlight,
		GlobalInFlight:  globalInFlight,
		Conc:            opts.Conc,
		DurationNS:      elapsed.Nanoseconds(),
		Violations:      srv.Violations(),
	}
	var all []int64
	perPath := map[string][]int64{}
	perOK := map[string]int64{}
	for _, rs := range results {
		for _, smp := range rs {
			rep.Requests++
			switch {
			case smp.err != nil:
				rep.Errors++
			case smp.code == http.StatusOK:
				rep.OK2xx++
				perOK[smp.path]++
			case smp.code == http.StatusTooManyRequests:
				rep.Rejected++
			case smp.path == "/v1/fault":
				rep.Faults5xx++
			default:
				rep.Errors++
			}
			all = append(all, smp.ns)
			perPath[smp.path] = append(perPath[smp.path], smp.ns)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	rep.P50NS = percentile(all, 0.50)
	rep.P90NS = percentile(all, 0.90)
	rep.P99NS = percentile(all, 0.99)
	if n := len(all); n > 0 {
		rep.MaxNS = all[n-1]
	}
	rep.TasksFinished = srv.TasksFinished() - tasks0
	secs := elapsed.Seconds()
	if secs > 0 {
		rep.TasksPerSec = float64(rep.TasksFinished) / secs
		rep.RequestsPerSec = float64(rep.Requests) / secs
	}
	var paths []string
	for p := range perPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		ns := perPath[p]
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		rep.PerEndpoint = append(rep.PerEndpoint, EndpointLoad{
			Path:     p,
			Requests: int64(len(ns)),
			OK:       perOK[p],
			P50NS:    percentile(ns, 0.50),
			P99NS:    percentile(ns, 0.99),
		})
	}
	return rep
}

// issue performs one request: in-process through the handler (the default —
// no sockets, so the measurement isolates runtime behavior from the network
// stack) or over HTTP when target is set.
func issue(srv *Server, target, path, tenant string) sample {
	start := time.Now()
	if target == "" {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set("X-Tenant", tenant)
		rw := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rw, req)
		return sample{path: path, ns: time.Since(start).Nanoseconds(), code: rw.Code}
	}
	req, err := http.NewRequest(http.MethodGet, target+path, nil)
	if err != nil {
		return sample{path: path, ns: time.Since(start).Nanoseconds(), err: err}
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return sample{path: path, ns: time.Since(start).Nanoseconds(), err: err}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return sample{path: path, ns: time.Since(start).Nanoseconds(), code: resp.StatusCode}
}

// percentile returns the q-quantile of a sorted sample (nearest-rank).
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// WriteJSON serializes the report (stable field order, trailing newline).
func (r *ServeReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTable renders the report as an aligned summary table.
func (r *ServeReport) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "serve load: %d clients x %v  workers=%d session-inflight=%d global-inflight=%d\n",
		r.Conc, time.Duration(r.DurationNS).Round(time.Millisecond), r.Workers, r.SessionInFlight, r.GlobalInFlight)
	fmt.Fprintf(w, "  requests %d (%.0f/s)  2xx=%d fault-5xx=%d rejected-429=%d errors=%d violations=%d\n",
		r.Requests, r.RequestsPerSec, r.OK2xx, r.Faults5xx, r.Rejected, r.Errors, r.Violations)
	fmt.Fprintf(w, "  latency p50=%v p90=%v p99=%v max=%v\n",
		time.Duration(r.P50NS), time.Duration(r.P90NS), time.Duration(r.P99NS), time.Duration(r.MaxNS))
	fmt.Fprintf(w, "  tasks %d (%.0f/s)\n", r.TasksFinished, r.TasksPerSec)
	for _, e := range r.PerEndpoint {
		fmt.Fprintf(w, "  %-12s %6d req %6d ok  p50=%-10v p99=%v\n",
			e.Path, e.Requests, e.OK, time.Duration(e.P50NS), time.Duration(e.P99NS))
	}
}
