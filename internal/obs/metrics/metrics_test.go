package metrics

import (
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestBucketIndexBoundaries pins the log-scale bucket map at its edges:
// bounds are inclusive (le semantics), the next nanosecond spills over.
func TestBucketIndexBoundaries(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {-5, 0}, {1, 0}, {999, 0}, {1000, 0},
		{1001, 1}, {2000, 1},
		{2001, 2}, {4000, 2},
		{4001, 3},
		{bucketBaseNS << (numBuckets - 1), numBuckets - 1},
		{bucketBaseNS<<(numBuckets-1) + 1, numBuckets}, // +Inf
		{1 << 62, numBuckets},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

// TestConcurrentHammer drives every instrument from many goroutines under
// the race detector and checks the exact totals: increments are atomic,
// nothing is lost.
func TestConcurrentHammer(t *testing.T) {
	const goroutines = 8
	const perG = 10_000

	reg := NewRegistry()
	c := reg.Counter("t_counter", "")
	h := reg.Histogram("t_hist", "")

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				// Spread observations across buckets deterministically.
				h.Observe(int64(1000 << (j % 8)))
			}
		}()
	}
	wg.Wait()

	if got := c.Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := h.Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
	var wantSum int64
	for j := 0; j < perG; j++ {
		wantSum += int64(1000 << (j % 8))
	}
	wantSum *= goroutines
	if got := h.SumNS(); got != wantSum {
		t.Errorf("histogram sum = %d, want %d", got, wantSum)
	}
}

// TestExposition renders a small registry and checks the text format:
// HELP/TYPE comments, label escaping, cumulative le buckets ending at +Inf
// with the count, and _sum in seconds.
func TestExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("req_total", "Requests.", Label{Key: "tenant", Value: `g"o\ld` + "\n"})
	for range 7 {
		c.Inc()
	}
	reg.GaugeFunc("live", "Live now.", func() float64 { return 3 })
	h := reg.Histogram("lat_seconds", "Latency.")
	h.Observe(500)       // le 1µs bucket
	h.Observe(1500)      // le 2µs
	h.Observe(3_000_000) // a mid bucket
	h.Observe(1 << 62)   // +Inf only

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP req_total Requests.\n",
		"# TYPE req_total counter\n",
		`req_total{tenant="g\"o\\ld\n"} 7` + "\n",
		"# TYPE live gauge\n",
		"live 3\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="1e-06"} 1` + "\n",
		`lat_seconds_bucket{le="2e-06"} 2` + "\n",
		`lat_seconds_bucket{le="+Inf"} 4` + "\n",
		"lat_seconds_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition is missing %q\n---\n%s", want, out)
		}
	}

	// _sum is the observation total converted to seconds.
	wantSum := float64(uint64(500)+1500+3_000_000+(1<<62)) / 1e9
	var gotSum float64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "lat_seconds_sum ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, "lat_seconds_sum "), 64)
			if err != nil {
				t.Fatalf("bad sum line %q: %v", line, err)
			}
			gotSum = v
		}
	}
	if diff := gotSum - wantSum; diff > 1e-3 || diff < -1e-3 {
		t.Errorf("lat_seconds_sum = %v, want %v", gotSum, wantSum)
	}

	// Buckets are cumulative and non-decreasing through the whole family.
	prev := -1.0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "lat_seconds_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts regress at %q (prev %v)", line, prev)
		}
		prev = v
	}
}

// TestCounterFunc pins the scrape-time counter: the value is sampled at
// render, and the family is typed counter.
func TestCounterFunc(t *testing.T) {
	reg := NewRegistry()
	n := 0.0
	reg.CounterFunc("sampled_total", "Sampled.", func() float64 { return n })
	n = 42
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()
	if !strings.Contains(out, "# TYPE sampled_total counter\n") || !strings.Contains(out, "sampled_total 42\n") {
		t.Fatalf("bad CounterFunc exposition:\n%s", out)
	}
}

// goldenRegistry is a registry exercising every rendering path: labelled and
// bare series, escaped label values, several series per family, integral,
// fractional, huge, negative, infinite and NaN samples, and histograms whose
// observations land in the first, a middle, the last finite and the +Inf
// bucket.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	gold := Label{Key: "tenant", Value: "gold"}
	odd := Label{Key: "tenant", Value: "a\\b\n\"c\""}
	for i, l := range []Label{gold, odd} {
		c := reg.Counter("req_total", "Requests, by tenant.", l)
		for range 3 + i {
			c.Inc()
		}
	}
	reg.Counter("bare_total", "")
	for i, v := range []float64{0, 3, -2.5, 0.1, 1.5e-7, 1e20, 123456789.25, 1e15, math.Inf(1), math.Inf(-1), math.NaN()} {
		reg.GaugeFunc("sample", "Samples of every shape.", func() float64 { return v },
			Label{Key: "i", Value: strconv.Itoa(i)})
	}
	reg.CounterFunc("sampled_total", "Sampled.", func() float64 { return 42 })
	h := reg.Histogram("lat_seconds", "Latency.", gold, Label{Key: "phase", Value: "run"})
	for _, ns := range []int64{0, 999, 1000, 1001, 3_000_000, 123_456_789, bucketBaseNS << (numBuckets - 1), 1 << 62} {
		h.Observe(ns)
	}
	reg.Histogram("lat_seconds", "Latency.", odd, Label{Key: "phase", Value: "run"})
	bare := reg.Histogram("bare_seconds", "")
	bare.Observe(2500)
	return reg
}

// TestExpositionGolden pins the rendered text byte for byte against
// testdata/exposition.golden, which was recorded from the fmt-based
// renderer this one replaced: scrapers parse the text, so a faster
// renderer may not change a single byte of it.
func TestExpositionGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/exposition.golden")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs:\n got  %q\n want %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("rendered %d lines, golden has %d", len(gl), len(wl))
	}
}
