package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// The host this benchmark was written on changes speed: for minutes at a
// time everything on it runs 10–40 % slower. Ten runs of one commit on ten
// seeds then spread (quartiles over median) 7–21 % on the raw timings,
// which no bound a metric may carry resolves. A fixed arithmetic loop of the
// benchmark's own, timed between the passes of the same window, slows down
// with the rest: the same ten runs spread 3–12 % once each time is divided
// by how slow the loop ran during its run (README.md has the table). So the
// end-to-end times are reported divided, and the rates multiplied, by
// slowdown(); the raw readings are printed and stored beside them.
//
// The loop is sampled only while nothing of the system under test can run:
// between passes that shut their runtime, worker processes or simulator
// down before they return, between set-up repetitions, and on serve-mix
// between stretches of the client loop, when the server's runtime (Blocking
// wait mode) has every worker parked. A change to the code under test
// therefore has no thread beside the loop to move it with.
type hostProbe struct {
	chunks []int64 // ns per chunk
	spent  time.Duration
}

const (
	// probeIters is one chunk: long enough (≈19 ms) to be past wake-up and
	// frequency effects, which make millisecond chunks useless.
	probeIters = 40_000_000
	// probeNominalNS is only the unit: what a chunk takes on the 2.1 GHz
	// host the benchmark was written on when nothing disturbs it, so that a
	// normalised time still reads as milliseconds of that host. Both sides
	// of a comparison divide by it, and neither can edit it.
	probeNominalNS = 19e6
	// probeShare is the share of a window spent in the loop: ≈40 chunks in a
	// 10 s window, enough for their median to follow the host.
	probeShare = 0.08
)

// sample times one chunk on one goroutine.
func (h *hostProbe) sample() {
	start := time.Now()
	spinSink.Add(spinWork(probeIters) & 1)
	d := time.Since(start)
	h.chunks = append(h.chunks, d.Nanoseconds())
	h.spent += d
}

// keepUp samples until probeShare of the time since start has gone into
// the loop. Windows call it between passes.
func (h *hostProbe) keepUp(start time.Time) {
	for float64(h.spent) < probeShare*float64(time.Since(start)) {
		h.sample()
	}
}

// slowdown is the run's median chunk over the nominal one.
func (h *hostProbe) slowdown() float64 {
	if len(h.chunks) == 0 {
		return 1
	}
	return medianInt(h.chunks) / probeNominalNS
}

// rssPeaks reads the process's resident-set high-water mark once per pass
// and starts it afresh (the kernel resets VmHWM to the current size when
// "5" is written to clear_refs). The largest of some forty passes moves by
// a quarter from run to run on the small-heap workloads; their median does
// not.
type rssPeaks struct {
	mb    []float64
	stuck bool // the mark could not be reset: readings only grow
}

func (r *rssPeaks) restart() {
	if os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) != nil {
		r.stuck = true
	}
}

func (r *rssPeaks) note() {
	r.mb = append(r.mb, vmHWM())
	r.restart()
}

// peak is the median pass's high-water mark; where the mark cannot be
// reset, the whole process's.
func (r *rssPeaks) peak() float64 {
	if r.stuck || len(r.mb) == 0 {
		return vmHWM()
	}
	return median(r.mb)
}

// vmHWM is the benchmark process's VmHWM in MB.
func vmHWM() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
