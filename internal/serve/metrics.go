package serve

import (
	"net/http"
	"time"

	"ompssgo/internal/obs/metrics"
)

// tenantNames maps tenantClass values (0..2) onto the label values the
// metrics plane exposes. Unknown X-Tenant headers land in "bronze", same
// as the scheduler's priority mapping.
var tenantNames = [3]string{"bronze", "silver", "gold"}

// The phases of a kernel request, in order: input (the reference checksum
// and the request's private instance), run (session open and the kernel,
// admission waits included), close (Session.Close: drain and arena drop),
// encode (the JSON response).
const (
	phaseInput = iota
	phaseRun
	phaseClose
	phaseEncode
	numPhases
)

var phaseNames = [numPhases]string{"input", "run", "close", "encode"}

// phaseMarks holds the start of each phase and the end of the last.
type phaseMarks [numPhases + 1]time.Time

// tenantSeries holds one tenant class's live series handles. The handles
// are registered once in initMetrics; the request path only does atomic
// increments on them.
type tenantSeries struct {
	requests   *metrics.Counter
	violations *metrics.Counter
	rejections *metrics.Counter
	faults     *metrics.Counter
	latency    *metrics.Histogram
	phases     [numPhases]*metrics.Histogram
}

// observePhases books one kernel request's phase durations.
func (t *tenantSeries) observePhases(m *phaseMarks) {
	for p, h := range t.phases {
		h.Observe(m[p+1].Sub(m[p]).Nanoseconds())
	}
}

// initMetrics builds the server's registry: per-tenant request counters and
// latency histograms fed from the request path, plus scrape-time gauges
// over the state the runtime already keeps (engine stats, dependence
// records, recorder ring drops). Called once from New,
// before the handler serves.
func (s *Server) initMetrics() {
	reg := metrics.NewRegistry()
	s.reg = reg
	for class := range tenantNames {
		l := metrics.Label{Key: "tenant", Value: tenantNames[class]}
		t := &s.tenants[class]
		t.requests = reg.Counter("ompss_requests_total",
			"Kernel requests admitted, by tenant class.", l)
		t.violations = reg.Counter("ompss_violations_total",
			"Isolation violations observed (checksum mismatch or leaked skip), by tenant class.", l)
		t.rejections = reg.Counter("ompss_rejections_total",
			"Requests answered 503 while draining or 429 after admission control refused a spawn, by tenant class.", l)
		t.faults = reg.Counter("ompss_faults_total",
			"Deliberate /v1/fault requests served, by tenant class.", l)
		t.latency = reg.Histogram("ompss_request_seconds",
			"Kernel request latency (session open to close).", l)
		for p, name := range phaseNames {
			t.phases[p] = reg.Histogram("ompss_request_phase_seconds",
				"Kernel request time by phase: input (reference + private instance), run (session open + kernel), close (drain + arena drop), encode (JSON response).",
				l, metrics.Label{Key: "phase", Value: name})
		}
	}

	reg.CounterFunc("ompss_renames_total",
		"Writes that received a fresh renamed instance instead of WAR/WAW edges.",
		func() float64 { return float64(s.rt.Stats().Graph.Renamed) })
	reg.CounterFunc("ompss_writebacks_total",
		"Renamed instances copied back onto canonical storage at chain drain.",
		func() float64 { return float64(s.rt.Stats().Graph.Writebacks) })

	reg.CounterFunc("ompss_tasks_finished_total",
		"Tasks retired by the shared graph, all sessions.",
		func() float64 { return float64(s.rt.Stats().Graph.Finished) })
	reg.CounterFunc("ompss_steals_total",
		"Successful task steals, any distance.",
		func() float64 { return float64(s.rt.Stats().Sched.Steals) })
	reg.CounterFunc("ompss_trace_dropped_events_total",
		"Trace-ring events overwritten before a drain (0 when no recorder is attached; a nonzero value means the ring capacity is too small).",
		func() float64 {
			if s.cfg.Recorder == nil {
				return 0
			}
			return float64(s.cfg.Recorder.DroppedTotal())
		})

	reg.GaugeFunc("ompss_sessions_live",
		"Request sessions currently open.",
		func() float64 {
			s.liveMu.Lock()
			n := s.liveN
			s.liveMu.Unlock()
			return float64(n)
		})
	reg.GaugeFunc("ompss_tasks_in_flight",
		"Tasks submitted to the shared graph and not yet retired.",
		func() float64 {
			g := s.rt.Stats().Graph
			if g.Finished > g.Submitted {
				return 0
			}
			return float64(g.Submitted - g.Finished)
		})
	reg.GaugeFunc("ompss_dep_records",
		"Live dependence records across the tracker's shards.",
		func() float64 { return float64(s.rt.DepRecords()) },
		metrics.Label{Key: "kind", Value: "datum"})
	reg.GaugeFunc("ompss_steal_failure_rate",
		"Fraction of victim probes that found nothing to steal.",
		func() float64 {
			sc := s.rt.Stats().Sched
			if sc.StealTries == 0 {
				return 0
			}
			return 1 - float64(sc.Steals)/float64(sc.StealTries)
		})
}

// handleMetrics is the Prometheus scrape endpoint.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}
