// Package metrics is the live half of the observability subsystem: where
// package obs records event streams for offline analysis, this package
// keeps running counters, gauges, and latency histograms that a scrape
// endpoint reads while the runtime serves. It follows the ring recorder's
// hot-path discipline — an increment or observation is a handful of atomic
// adds, takes no lock shared between workers, and performs zero heap
// allocations (enforced by the alloc-budget suite) — so attaching the
// metrics plane to a loaded server never perturbs what it measures.
//
// The exposition format is Prometheus text (version 0.0.4), hand-rendered
// so the module stays dependency-free. Durations are observed in
// nanoseconds and exposed in seconds, per Prometheus convention.
package metrics

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name/value pair attached to a series.
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// histogram bucket layout: upper bounds at 1µs·2^i for i in [0, numBuckets),
// i.e. 1µs, 2µs, 4µs … ~34s, plus the implicit +Inf bucket. Log-scale
// bounds keep the bucket index a bit-length computation — no search, no
// float math on the observe path.
const (
	numBuckets   = 26
	bucketBaseNS = 1_000 // 1µs
)

// Histogram is a fixed-bucket log-scale latency histogram. Observe takes
// nanoseconds; exposition renders seconds.
type Histogram struct {
	count   atomic.Uint64
	sumNS   atomic.Int64
	buckets [numBuckets]atomic.Uint64 // non-cumulative; +Inf is count-sum
}

// bucketIndex maps a nanosecond observation to its bucket, or numBuckets
// for +Inf (observations above the largest finite bound).
func bucketIndex(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	// Smallest i with ns <= bucketBaseNS << i.
	q := uint64(ns) / bucketBaseNS
	if q == 0 || (q == 1 && uint64(ns) <= bucketBaseNS) {
		return 0
	}
	i := bits.Len64(q - 1) // ceil(log2(q)) for q ≥ 2
	if uint64(ns) > bucketBaseNS<<i {
		i++
	}
	if i >= numBuckets {
		return numBuckets
	}
	return i
}

// Observe records one duration in nanoseconds.
func (h *Histogram) Observe(ns int64) {
	h.count.Add(1)
	h.sumNS.Add(ns)
	if i := bucketIndex(ns); i < numBuckets {
		h.buckets[i].Add(1)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// SumNS returns the summed observations in nanoseconds.
func (h *Histogram) SumNS() int64 { return h.sumNS.Load() }

// series is one registered time series: exactly one of the value sources
// is set.
type series struct {
	labels []Label
	c      *Counter
	gf     func() float64
	h      *Histogram
}

// family groups every series sharing a metric name.
type family struct {
	name string
	help string
	typ  string // "counter", "gauge", "histogram"
	ser  []*series
}

// Registry holds the registered families in registration order and renders
// them on demand. Registration takes a lock; the returned Counter and
// Histogram handles are lock-free afterwards — register once at setup,
// increment forever.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) add(name, help, typ string, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	f.ser = append(f.ser, s)
}

// Counter registers (or extends) a counter family and returns the series'
// handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.add(name, help, "counter", &series{labels: labels, c: c})
	return c
}

// GaugeFunc registers a gauge sampled at scrape time — the bridge to state
// the runtime already keeps (stats snapshots) without a feed path.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...Label) {
	r.add(name, help, "gauge", &series{labels: labels, gf: f})
}

// CounterFunc registers a counter sampled at scrape time, for monotonic
// values another component already maintains (engine stat counters, ring
// drop counts). The caller guarantees monotonicity.
func (r *Registry) CounterFunc(name, help string, f func() float64, labels ...Label) {
	r.add(name, help, "counter", &series{labels: labels, gf: f})
}

// Histogram registers a latency histogram series.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	h := &Histogram{}
	r.add(name, help, "histogram", &series{labels: labels, h: h})
	return h
}

// escapeLabel escapes a label value per the text exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// renderLabels renders {k="v",...} including extra pairs, or "" when empty.
func renderLabels(labels []Label, extra ...Label) string {
	all := make([]Label, 0, len(labels)+len(extra))
	all = append(all, labels...)
	all = append(all, extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabel(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// fmtFloat renders a float the way Prometheus expects.
func fmtFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every registered family in the text exposition
// format. Sampling each series is a point-in-time atomic read; the output
// is consistent per series, not across the whole scrape.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.ser {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch {
	case s.c != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, renderLabels(s.labels), s.c.Value())
		return err
	case s.gf != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(s.labels), fmtFloat(s.gf()))
		return err
	case s.h != nil:
		var cum uint64
		for i := 0; i < numBuckets; i++ {
			cum += s.h.buckets[i].Load()
			le := float64(int64(bucketBaseNS)<<i) / 1e9
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				f.name, renderLabels(s.labels, Label{"le", fmtFloat(le)}), cum); err != nil {
				return err
			}
		}
		count := s.h.Count()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.name, renderLabels(s.labels, Label{"le", "+Inf"}), count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
			f.name, renderLabels(s.labels), fmtFloat(float64(s.h.SumNS())/1e9)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, renderLabels(s.labels), count)
		return err
	}
	return nil
}
