package serve

// Metrics-plane tests: scrape GET /metrics after known traffic and check
// the exposition parses and the per-tenant series moved by exactly the
// requests sent.

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"ompssgo/internal/obs"
	"ompssgo/ompss"
)

// scrape fetches /metrics and parses the text exposition into a
// series->value map keyed by the full sample name including labels, e.g.
// `ompss_requests_total{tenant="gold"}`. Comment lines are type-checked
// minimally (# HELP / # TYPE only).
func scrape(t *testing.T, srv *Server) map[string]float64 {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics: Content-Type %q", ct)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Fatalf("/metrics: unparseable comment line %q", line)
			}
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("/metrics: unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("/metrics: bad value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsEndpoint drives mixed gold/bronze traffic plus one fault and
// asserts the scrape reflects it: per-tenant request counters move by the
// exact request counts, latency histograms record every request, and the
// runtime gauges are sane.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, ompss.Workers(2))

	const gold, bronze = 3, 2
	for i := 0; i < gold; i++ {
		if rec, _ := do(t, srv, "/v1/rotate", "gold"); rec.Code != http.StatusOK {
			t.Fatalf("gold request %d: status %d", i, rec.Code)
		}
	}
	for i := 0; i < bronze; i++ {
		if rec, _ := do(t, srv, "/v1/rgbcmy", ""); rec.Code != http.StatusOK {
			t.Fatalf("bronze request %d: status %d", i, rec.Code)
		}
	}
	do(t, srv, "/v1/fault", "silver") // answers 500 by design

	m := scrape(t, srv)
	checks := []struct {
		series string
		want   float64
	}{
		{`ompss_requests_total{tenant="gold"}`, gold},
		{`ompss_requests_total{tenant="bronze"}`, bronze},
		{`ompss_requests_total{tenant="silver"}`, 0},
		{`ompss_violations_total{tenant="gold"}`, 0},
		{`ompss_violations_total{tenant="bronze"}`, 0},
		{`ompss_faults_total{tenant="silver"}`, 1},
		{`ompss_rejections_total{tenant="gold"}`, 0},
		{`ompss_request_seconds_count{tenant="gold"}`, gold},
		{`ompss_request_seconds_count{tenant="bronze"}`, bronze},
		{`ompss_sessions_live`, 0},
		{`ompss_trace_dropped_events_total`, 0},
	}
	for _, c := range checks {
		got, ok := m[c.series]
		if !ok {
			t.Fatalf("scrape is missing %s", c.series)
		}
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.series, got, c.want)
		}
	}

	// Every admitted kernel request books each of its phases once.
	for tenant, n := range map[string]float64{"gold": gold, "bronze": bronze, "silver": 0} {
		for _, phase := range phaseNames {
			series := `ompss_request_phase_seconds_count{tenant="` + tenant + `",phase="` + phase + `"}`
			if got, ok := m[series]; !ok || got != n {
				t.Errorf("%s = %v (present %v), want %v", series, got, ok, n)
			}
		}
	}

	// Latency sums are positive once requests ran.
	if m[`ompss_request_seconds_sum{tenant="gold"}`] <= 0 {
		t.Errorf("gold latency sum = %v, want > 0", m[`ompss_request_seconds_sum{tenant="gold"}`])
	}
	// The histogram's +Inf bucket equals its count.
	if inf := m[`ompss_request_seconds_bucket{tenant="gold",le="+Inf"}`]; inf != gold {
		t.Errorf("gold +Inf bucket = %v, want %v", inf, gold)
	}

	// Tasks ran through the shared graph; nothing should still be in flight
	// after the sessions closed.
	if m[`ompss_tasks_finished_total`] <= 0 {
		t.Errorf("tasks_finished_total = %v, want > 0", m[`ompss_tasks_finished_total`])
	}
	if m[`ompss_tasks_in_flight`] != 0 {
		t.Errorf("tasks_in_flight = %v after drain", m[`ompss_tasks_in_flight`])
	}
}

// TestPhaseObservationAllocs pins that booking a request's phases adds no
// allocation to the request path.
func TestPhaseObservationAllocs(t *testing.T) {
	srv, _ := newTestServer(t)
	var marks phaseMarks
	for p := range marks {
		marks[p] = time.Unix(0, int64(p)*1000)
	}
	if n := testing.AllocsPerRun(1000, func() { srv.tenants[0].observePhases(&marks) }); n != 0 {
		t.Fatalf("observePhases allocates %v times per request", n)
	}
}

// TestMetricsNoTuneGauges pins that the scrape carries no ompss_tune_
// family, even for a runtime built with Auto Tuning fields (what the
// serve-mix benchmark runs): Auto is the static default, and a constant
// published as a setpoint would misread as tuning activity.
func TestMetricsNoTuneGauges(t *testing.T) {
	srv, _ := newTestServer(t, ompss.Workers(2),
		ompss.WithTuning(ompss.Tuning{Grain: ompss.Auto, StealBackoff: ompss.Auto}))
	m := scrape(t, srv)
	for series := range m {
		if strings.HasPrefix(series, "ompss_tune_") {
			t.Errorf("scrape exposes %s", series)
		}
	}
	if _, ok := m["ompss_requests_total{tenant=\"gold\"}"]; !ok {
		t.Fatalf("request counters missing from scrape")
	}
}

// TestMetricsRenameSeries pins ompss_renames_total and
// ompss_writebacks_total to the engine's own counters, with a trace recorder
// attached and without. Twice, a reader held open on the runtime's default
// session puts the writer behind it on a renamed instance; the chain drains
// once, so the engine counts two renames and one writeback, and the two
// series must read those different positive numbers.
func TestMetricsRenameSeries(t *testing.T) {
	for _, observed := range []bool{false, true} {
		t.Run(fmt.Sprintf("recorder=%v", observed), func(t *testing.T) {
			opts := []ompss.Option{ompss.Workers(2), ompss.MaxInFlight(-1),
				ompss.WithTuning(ompss.Tuning{Renaming: ompss.On})}
			var rec *obs.Recorder
			if observed {
				rec = obs.NewRecorder()
				opts = append(opts, ompss.Observe(rec))
			}
			rt := ompss.New(opts...)
			t.Cleanup(rt.Shutdown)
			srv := New(rt, Config{SessionInFlight: 64, Admission: ompss.BlockOnFull, Recorder: rec})

			var cell int64
			d := rt.Register(&cell).EnableRenaming(nil,
				func() any { return new(int64) },
				func(dst, src any) { *dst.(*int64) = *src.(*int64) })
			gate := make(chan struct{})
			for range 2 {
				rt.Task(func(tc *ompss.TC) { <-gate; _ = *tc.Data(d).(*int64) }, ompss.In(d))
				rt.Task(func(tc *ompss.TC) { *tc.Data(d).(*int64) += 7 }, ompss.InOut(d))
			}
			close(gate)
			rt.Taskwait()
			if cell != 14 {
				t.Fatalf("cell = %d after the writeback, want 14", cell)
			}

			g := rt.Stats().Graph
			m := scrape(t, srv)
			for series, want := range map[string]uint64{
				"ompss_renames_total":    g.Renamed,
				"ompss_writebacks_total": g.Writebacks,
			} {
				if want == 0 {
					t.Errorf("engine counted no %s: the held reader should force one", series)
				}
				if got := m[series]; got != float64(want) {
					t.Errorf("%s = %v, want the engine's %d", series, got, want)
				}
			}
		})
	}
}

// TestMetricsRejections checks the draining path books its 503s per tenant.
func TestMetricsRejections(t *testing.T) {
	srv, _ := newTestServer(t)
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/rotate", nil)
	req.Header.Set("X-Tenant", "gold")
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining server answered %d", rec.Code)
	}
	m := scrape(t, srv)
	if got := m[`ompss_rejections_total{tenant="gold"}`]; got != 1 {
		t.Fatalf(`rejections_total{tenant="gold"} = %v, want 1`, got)
	}
	if got := m[`ompss_requests_total{tenant="gold"}`]; got != 0 {
		t.Fatalf("rejected request still counted as admitted: %v", got)
	}
}
