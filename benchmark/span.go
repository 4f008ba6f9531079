package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. Spans of one pass (or one request) share Trace; Parent
// is the span that caused this one (0 for a root).
type Span struct {
	ID     int64  `json:"id"`
	Trace  int64  `json:"trace"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. Every timing the
// benchmark reports is taken through it, tracing on or off; with keep
// false the durations are returned and nothing is stored, which is how
// the end-to-end window runs.
type spanLog struct {
	epoch time.Time
	keep  bool

	mu    sync.Mutex
	next  int64
	spans []Span
}

func newSpanLog(keep bool) *spanLog { return &spanLog{epoch: time.Now(), keep: keep} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	log               *spanLog
	id, trace, parent int64
	name              string
	start             time.Time
}

// root starts a span with a fresh trace identifier (one per pass or
// request).
func (l *spanLog) root(name string) openSpan {
	id := l.id()
	return openSpan{log: l, id: id, trace: id, name: name, start: time.Now()}
}

// child starts a span caused by s.
func (s openSpan) child(name string) openSpan {
	return openSpan{log: s.log, id: s.log.id(), trace: s.trace, parent: s.id, name: name, start: time.Now()}
}

// childAt starts a child span at a time the callee reported (a phase
// inside a program); close it with endAfter.
func (s openSpan) childAt(name string, start time.Time) openSpan {
	c := s.child(name)
	c.start = start
	return c
}

func (l *spanLog) id() int64 {
	if !l.keep {
		return 0
	}
	l.mu.Lock()
	l.next++
	id := l.next
	l.mu.Unlock()
	return id
}

// end closes the span and returns its duration.
func (s openSpan) end() time.Duration {
	now := time.Now()
	s.log.record(s, s.start, now)
	return now.Sub(s.start)
}

// endAfter closes a span whose duration the layer reported itself (the
// serve session's ElapsedNS): it is placed at its own start time.
func (s openSpan) endAfter(d time.Duration) {
	s.log.record(s, s.start, s.start.Add(d))
}

func (l *spanLog) record(s openSpan, start, end time.Time) {
	if !l.keep {
		return
	}
	sp := Span{ID: s.id, Trace: s.trace, Parent: s.parent, Name: s.name,
		Start: start.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds()}
	l.mu.Lock()
	l.spans = append(l.spans, sp)
	l.mu.Unlock()
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Children may nest, touch or
// overlap each other; the covered part is the union of their intervals
// clipped to the parent.
func selfTimes(spans []Span) map[int64]int64 {
	kids := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

func covered(lo, hi int64, kids []Span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	at := lo
	for _, k := range kids {
		a, b := max(k.Start, at), min(k.End, hi)
		if b > a {
			total += b - a
			at = b
		}
	}
	return total
}

// selfByName sums self time per span name within each trace and returns,
// per name, one value per trace in which the name occurs — the samples a
// per-layer self-time median is taken over.
func selfByName(spans []Span) map[string][]int64 {
	self := selfTimes(spans)
	type key struct {
		trace int64
		name  string
	}
	sums := map[key]int64{}
	var order []key
	for _, s := range spans {
		k := key{s.Trace, s.Name}
		if _, seen := sums[k]; !seen {
			order = append(order, k)
		}
		sums[k] += self[s.ID]
	}
	out := map[string][]int64{}
	for _, k := range order {
		out[k.name] = append(out[k.name], sums[k])
	}
	return out
}

// selfCoverage is the acceptance check of the trace: over every root
// span, the self times of the whole tree divided by the root's duration.
// It is 1 when children run one after another inside their parents, and
// drifts from 1 only if spans escape their parent's interval.
func selfCoverage(spans []Span) float64 {
	self := selfTimes(spans)
	var roots, tree int64
	for _, s := range spans {
		if s.Parent == 0 {
			roots += s.End - s.Start
		}
		tree += self[s.ID]
	}
	if roots == 0 {
		return 1
	}
	return float64(tree) / float64(roots)
}

// traceFile is the document written to out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// SelfCoverage is Σ self time over all spans / Σ root durations.
	SelfCoverage float64 `json:"self_coverage"`
	// SelfMedianNS is the median, over traces, of each span name's summed
	// self time — the per-layer timings the benchmark prints.
	SelfMedianNS map[string]int64 `json:"self_median_ns"`
	Spans        []Span           `json:"spans"`
}

func (l *spanLog) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tf := traceFile{Workload: workload, Seed: seed, SelfCoverage: selfCoverage(l.spans),
		SelfMedianNS: map[string]int64{}, Spans: l.spans}
	for name, vals := range selfByName(l.spans) {
		tf.SelfMedianNS[name] = int64(medianInt(vals))
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// ---- order statistics ----

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// medianInt is the median of v (mean of the middle pair for even counts);
// 0 for an empty sample.
func medianInt(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return float64(s[n/2])
	}
	return float64(s[n/2-1]+s[n/2]) / 2
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of a sorted sample.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

// tailLevels are the percentiles a tail metric may be reported at.
var tailLevels = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// tail reports the highest of tailLevels that still has at least ten
// samples beyond it, with the level it settled on and the sample count:
// a "p99" over 300 samples is really the p95, and says so.
func tail(v []int64) (value, level float64, n int) {
	s := sortedCopy(v)
	n = len(s)
	level = tailLevels[len(tailLevels)-1]
	for _, q := range tailLevels {
		if float64(n)*(1-q) >= 10 {
			level = q
			break
		}
	}
	return quantile(s, level), level, n
}

// quartileSpread is (Q3 − Q1) / median with the quartiles of Python's
// statistics.quantiles(values, n=4) — the spread the acceptance rule of
// the benchmark is stated in. ok is false below two values.
func quartileSpread(v []float64) (spread float64, ok bool) {
	m := len(v)
	if m < 2 {
		return 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0, false
	}
	return math.Abs((q(3) - q(1)) / med), true
}
