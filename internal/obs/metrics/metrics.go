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
	"io"
	"math"
	"math/bits"
	"strconv"
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
// is set. Its labels are rendered once, at registration, as the escaped
// k="v" pairs between the braces ("" when it has none).
type series struct {
	labels string
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
	lastLen  atomic.Int64 // the previous scrape's length: the next one's buffer size
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
	r.add(name, help, "counter", &series{labels: renderLabels(labels), c: c})
	return c
}

// GaugeFunc registers a gauge sampled at scrape time — the bridge to state
// the runtime already keeps (stats snapshots) without a feed path.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...Label) {
	r.add(name, help, "gauge", &series{labels: renderLabels(labels), gf: f})
}

// CounterFunc registers a counter sampled at scrape time, for monotonic
// values another component already maintains (engine stat counters, ring
// drop counts). The caller guarantees monotonicity.
func (r *Registry) CounterFunc(name, help string, f func() float64, labels ...Label) {
	r.add(name, help, "counter", &series{labels: renderLabels(labels), gf: f})
}

// Histogram registers a latency histogram series.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	h := &Histogram{}
	r.add(name, help, "histogram", &series{labels: renderLabels(labels), h: h})
	return h
}

// escapeLabel escapes a label value per the text exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// renderLabels renders labels as the k="v" pairs a series line carries
// between its braces, values escaped, or "" when there are none.
func renderLabels(labels []Label) string {
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// leBounds holds each finite bucket's rendered upper bound in seconds.
var leBounds = func() (le [numBuckets]string) {
	for i := range le {
		le[i] = string(appendFloat(nil, float64(int64(bucketBaseNS)<<i)/1e9))
	}
	return le
}()

// appendFloat renders a float the way Prometheus expects: integral values
// as integers, +Inf spelled out, anything else in shortest %g form.
func appendFloat(b []byte, v float64) []byte {
	if math.IsInf(v, +1) {
		return append(b, "+Inf"...)
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendName appends a series line's name and label set: name+suffix, then
// the series' labels and le (when not "") in braces, then the space before
// the value.
func appendName(b []byte, f *family, suffix string, s *series, le string) []byte {
	b = append(b, f.name...)
	b = append(b, suffix...)
	if s.labels != "" || le != "" {
		b = append(b, '{')
		b = append(b, s.labels...)
		if le != "" {
			if s.labels != "" {
				b = append(b, ',')
			}
			b = append(b, `le="`...)
			b = append(b, le...)
			b = append(b, '"')
		}
		b = append(b, '}')
	}
	return append(b, ' ')
}

// WritePrometheus renders every registered family in the text exposition
// format into one buffer, sized by the previous scrape, and writes it with
// a single Write. The registry lock is held only to snapshot the families;
// the sampling callbacks and the Write run outside it. Sampling each series
// is a point-in-time atomic read; the output is consistent per series, not
// across the whole scrape.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]family, len(r.families))
	for i, f := range r.families {
		fams[i] = *f
	}
	r.mu.Unlock()
	b := make([]byte, 0, r.lastLen.Load())
	for i := range fams {
		f := &fams[i]
		if f.help != "" {
			b = append(b, "# HELP "...)
			b = append(b, f.name...)
			b = append(b, ' ')
			b = append(b, f.help...)
			b = append(b, '\n')
		}
		b = append(b, "# TYPE "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.typ...)
		b = append(b, '\n')
		for _, s := range f.ser {
			b = appendSeries(b, f, s)
		}
	}
	r.lastLen.Store(int64(len(b)))
	_, err := w.Write(b)
	return err
}

func appendSeries(b []byte, f *family, s *series) []byte {
	switch {
	case s.c != nil:
		b = strconv.AppendUint(appendName(b, f, "", s, ""), s.c.Value(), 10)
	case s.gf != nil:
		b = appendFloat(appendName(b, f, "", s, ""), s.gf())
	case s.h != nil:
		var cum uint64
		for i := 0; i < numBuckets; i++ {
			cum += s.h.buckets[i].Load()
			b = strconv.AppendUint(appendName(b, f, "_bucket", s, leBounds[i]), cum, 10)
			b = append(b, '\n')
		}
		count := s.h.Count()
		b = strconv.AppendUint(appendName(b, f, "_bucket", s, "+Inf"), count, 10)
		b = append(b, '\n')
		b = appendFloat(appendName(b, f, "_sum", s, ""), float64(s.h.SumNS())/1e9)
		b = append(b, '\n')
		b = strconv.AppendUint(appendName(b, f, "_count", s, ""), count, 10)
	default:
		return b
	}
	return append(b, '\n')
}
