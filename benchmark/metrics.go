package main

import (
	"strconv"

	"ompssgo/internal/suite"
)

// metricDef declares one metric: the vocabulary later changes claim
// against. BENCHMARK.json lists the same names, units, directions and
// bounds; TestDeclaredNames keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before it counts as a regression.
	Bound float64
	// Exact marks a value that repeats bit for bit at equal seeds; -compare
	// treats any difference as a behaviour change.
	Exact bool
	// Moves names, for a per-layer metric, the end-to-end metric it should
	// move and the workload it should move it on.
	Moves string
}

// endToEnd are the twelve metrics every workload reports with -trace 0.
// Each has one reading that holds on every workload (see README.md for the
// per-workload table): a workload is a set of parts, each with a
// sequential, a Pthreads and an OmpSs variant over the same seeded inputs.
//
// The bounds are what the 2-CPU host resolves, not what one would wish
// for. A bound is of use when it is about three times the spread of ten
// runs of one commit (quartiles over median). Normalised by the host probe
// (host.go), timings and rates spread 3–14 % depending on the workload and
// the hour, the two ratios 1–11 %, the median pass's resident set 1–10 %:
// those carry the largest bound a manifest may declare. Counts and virtual
// time spread about 1 % between seeds. Finer claims go through paired runs
// and -compare.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "wall_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "tasks_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "speedup_vs_seq", Unit: "x", Better: "higher", Bound: 0.25},
	{Name: "factor_vs_pthreads", Unit: "x", Better: "higher", Bound: 0.25},
	{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "bytes_moved", Unit: "bytes", Better: "lower", Bound: 0.05},
	{Name: "virtual_makespan_ms", Unit: "vms", Better: "lower", Bound: 0.05, Exact: true},
	{Name: "table1_geomean", Unit: "x", Better: "higher", Bound: 0.06, Exact: true},
}

// perLayer are the metrics of single layers, reported with -trace 1. A
// workload that does not exercise a layer reports 0 for its metrics.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	const fine = "tasks_per_s on fine-chains, fine-readers"
	defs := []metricDef{
		// The host, not a layer: how much slower than the reference host the
		// calibration loop ran during the traced pass (per-layer times are raw).
		{Name: "host.slowdown", Unit: "x", Better: "lower", Moves: "nothing (end-to-end times are divided by it)"},

		// ompss: the public runtime surface.
		{Name: "ompss.submit_ns_per_task", Unit: "ns", Better: "lower", Moves: fine},
		{Name: "ompss.drain_ns_per_task", Unit: "ns", Better: "lower", Moves: fine},
		{Name: "ompss.spawn_ns", Unit: "ns", Better: "lower", Moves: fine},
		{Name: "ompss.allocs_per_task", Unit: "count", Better: "lower", Moves: fine},
		{Name: "ompss.bytes_per_task", Unit: "bytes", Better: "lower", Moves: "bytes_moved, tasks_per_s on fine-chains, fine-readers"},
		{Name: "ompss.session_cycle_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms, req_per_s on serve-mix"},
		{Name: "ompss.runtime_cycle_us", Unit: "us", Better: "lower", Moves: "wall_ms on suite-native (ten runtimes per pass)"},
		{Name: "ompss.scaling_w_over_1", Unit: "x", Better: "higher", Moves: "speedup_vs_seq on suite-native"},

		// internal/core: dependence tracker and scheduler.
		{Name: "core.graph_submit_ns", Unit: "ns", Better: "lower", Moves: fine},
		{Name: "core.graph_finish_ns", Unit: "ns", Better: "lower", Moves: fine},
		{Name: "core.sched_push_pop_ns", Unit: "ns", Better: "lower", Moves: fine},
		{Name: "core.sched_steal_ns", Unit: "ns", Better: "lower", Moves: "tasks_per_s on fine-chains"},
		{Name: "core.edges_per_task", Unit: "count", Better: "lower", Moves: "tasks_per_s on fine-readers"},
		{Name: "core.steals", Unit: "count", Better: "lower", Moves: "tasks_per_s on fine-chains; wall_ms on suite-native"},
		{Name: "core.steal_hit_ratio", Unit: "ratio", Better: "higher", Moves: "tasks_per_s on fine-chains; wall_ms on suite-native"},
		{Name: "core.local_pop_share", Unit: "ratio", Better: "higher", Moves: "tasks_per_s on fine-chains; wall_ms on suite-native"},
		{Name: "core.global_pop_share", Unit: "ratio", Better: "lower", Moves: "tasks_per_s on fine-chains"},
		{Name: "core.renamed", Unit: "count", Better: "higher", Moves: "tasks_per_s on fine-readers (0 on fine-chains)"},
		{Name: "core.rename_fallbacks", Unit: "count", Better: "lower", Moves: "tasks_per_s on fine-readers"},
		{Name: "core.rename_hit_ratio", Unit: "ratio", Better: "higher", Moves: "tasks_per_s on fine-readers"},
		{Name: "core.writebacks", Unit: "count", Better: "lower", Moves: "tasks_per_s on fine-readers"},

		// internal/obs: the lifecycle split of the traced pass.
		{Name: "obs.dep_wait_us_p50", Unit: "us", Better: "lower", Moves: "wall_ms on suite-native"},
		{Name: "obs.queue_wait_us_p50", Unit: "us", Better: "lower", Moves: "tasks_per_s on fine-chains"},
		{Name: "obs.queue_wait_us_p99", Unit: "us", Better: "lower", Moves: "latency_p99_ms on serve-mix; tasks_per_s on fine-chains"},
		{Name: "obs.body_us_p50", Unit: "us", Better: "lower", Moves: "wall_ms on suite-native"},
		{Name: "obs.utilization", Unit: "ratio", Better: "higher", Moves: "speedup_vs_seq on suite-native"},
		{Name: "obs.avg_parallelism", Unit: "x", Better: "higher", Moves: "speedup_vs_seq on suite-native"},
		{Name: "obs.critical_path_share", Unit: "ratio", Better: "lower", Moves: "wall_ms on suite-native"},
		{Name: "obs.dropped_events", Unit: "count", Better: "lower", Moves: "nothing (trust in the obs numbers)"},
		{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "nothing (end-to-end numbers are taken with tracing off)"},
	}

	// internal/suite and the kernels under it.
	for _, app := range suite.Names() {
		defs = append(defs, metricDef{Name: "suite." + app + "_ms", Unit: "ms", Better: "lower",
			Moves: "wall_ms, tasks_per_s on suite-native"})
	}
	defs = append(defs,
		metricDef{Name: "suite.seq_ms", Unit: "ms", Better: "lower", Moves: "speedup_vs_seq on suite-native"},
		metricDef{Name: "suite.pthreads_ms", Unit: "ms", Better: "lower", Moves: "factor_vs_pthreads on suite-native"},
		metricDef{Name: "suite.tasks_per_pass", Unit: "count", Better: "lower", Exact: true, Moves: "tasks_per_s on suite-native"},
	)

	// internal/serve.
	const p50, p99 = "latency_p50_ms, req_per_s on serve-mix", "latency_p99_ms on serve-mix"
	defs = append(defs,
		metricDef{Name: "serve.session_us_p50", Unit: "us", Better: "lower", Moves: p50},
		metricDef{Name: "serve.session_us_p99", Unit: "us", Better: "lower", Moves: p99},
		metricDef{Name: "serve.handler_overhead_us_p50", Unit: "us", Better: "lower", Moves: p50},
		metricDef{Name: "serve.handler_overhead_us_p99", Unit: "us", Better: "lower", Moves: p99},
	)
	for _, ep := range []string{"rotate", "rgbcmy", "h264dec"} {
		defs = append(defs,
			metricDef{Name: "serve." + ep + "_p50_ms", Unit: "ms", Better: "lower", Moves: p50},
			metricDef{Name: "serve." + ep + "_p99_ms", Unit: "ms", Better: "lower", Moves: p99})
	}
	defs = append(defs,
		metricDef{Name: "serve.fault_p50_us", Unit: "us", Better: "lower", Moves: p50},
		metricDef{Name: "serve.fault_p99_us", Unit: "us", Better: "lower", Moves: p99},
		metricDef{Name: "serve.latency_max_ms", Unit: "ms", Better: "lower", Moves: p99},
		metricDef{Name: "serve.tasks_per_req", Unit: "count", Better: "lower", Moves: "tasks_per_s on serve-mix"},
		metricDef{Name: "serve.violations", Unit: "count", Better: "lower", Moves: "failed operations on serve-mix"},
		metricDef{Name: "serve.rejections", Unit: "count", Better: "lower", Moves: "failed operations on serve-mix"},
		metricDef{Name: "serve.metrics_scrape_us", Unit: "us", Better: "lower", Moves: "nothing (scraped after the window)"},
	)

	// internal/dist.
	const frames = "wall_ms through dist.rgbcmy_ms on dist-kernels"
	const bytes = "bytes_moved; wall_ms through dist.md5_ms, dist.rotate_ms on dist-kernels"
	defs = append(defs,
		metricDef{Name: "dist.spawn_shutdown_ms", Unit: "ms", Better: "lower", Moves: "wall_ms on dist-kernels (paid four times per pass)"},
		metricDef{Name: "dist.program_ms", Unit: "ms", Better: "lower", Moves: "wall_ms on dist-kernels"},
		metricDef{Name: "dist.rotate_ms", Unit: "ms", Better: "lower", Moves: "wall_ms on dist-kernels"},
		metricDef{Name: "dist.rgbcmy_ms", Unit: "ms", Better: "lower", Moves: "wall_ms on dist-kernels"},
		metricDef{Name: "dist.md5_ms", Unit: "ms", Better: "lower", Moves: "wall_ms on dist-kernels"},
		metricDef{Name: "dist.kmeans_ms", Unit: "ms", Better: "lower", Moves: "wall_ms on dist-kernels"},
		metricDef{Name: "dist.overhead_vs_seq", Unit: "x", Better: "lower", Moves: "speedup_vs_seq on dist-kernels"},
		metricDef{Name: "dist.speedup_w2_over_w1", Unit: "x", Better: "higher", Moves: "wall_ms on dist-kernels"},
		metricDef{Name: "dist.tcp_over_unix", Unit: "x", Better: "lower", Moves: "nothing (the window runs on the unix transport)"},
		metricDef{Name: "dist.frame_roundtrip_ns", Unit: "ns", Better: "lower", Moves: frames},
		metricDef{Name: "dist.frame_roundtrip_allocs", Unit: "count", Better: "lower", Moves: frames},
		metricDef{Name: "dist.tasks", Unit: "count", Better: "lower", Exact: true, Moves: "tasks_per_s on dist-kernels"},
		metricDef{Name: "dist.round_trips_per_task", Unit: "ratio", Better: "lower", Moves: frames},
		metricDef{Name: "dist.bytes_to_workers", Unit: "bytes", Better: "lower", Moves: bytes},
		metricDef{Name: "dist.bytes_from_workers", Unit: "bytes", Better: "lower", Moves: bytes},
		metricDef{Name: "dist.bytes_forwarded", Unit: "bytes", Better: "lower", Moves: bytes},
		metricDef{Name: "dist.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: bytes},
		metricDef{Name: "dist.chains", Unit: "count", Better: "higher", Moves: frames},
		metricDef{Name: "dist.chained_tasks", Unit: "count", Better: "higher", Moves: frames},
		metricDef{Name: "dist.forward_fallbacks", Unit: "count", Better: "lower", Moves: bytes},
		metricDef{Name: "dist.evictions", Unit: "count", Better: "lower", Moves: bytes},
		metricDef{Name: "dist.trace_reconciled", Unit: "bool", Better: "higher", Moves: "nothing (trust in the dist numbers)"},
	)

	// internal/vm and machine: the simulator.
	const host = "wall_ms on sim-table1"
	const virt = "virtual_makespan_ms, table1_geomean on sim-table1"
	defs = append(defs,
		metricDef{Name: "vm.events_per_pass", Unit: "count", Better: "lower", Exact: true, Moves: host},
		metricDef{Name: "vm.events_per_s", Unit: "1/s", Better: "higher", Moves: host},
		metricDef{Name: "vm.host_ns_per_event", Unit: "ns", Better: "lower", Moves: host},
		metricDef{Name: "sim.ompss_host_ms", Unit: "ms", Better: "lower", Moves: host},
		metricDef{Name: "sim.pthreads_host_ms", Unit: "ms", Better: "lower", Moves: "factor_vs_pthreads on sim-table1"},
	)
	for _, p := range simCores {
		defs = append(defs, metricDef{Name: "sim.geomean_p" + strconv.Itoa(p), Unit: "x", Better: "higher", Exact: true, Moves: virt})
	}
	defs = append(defs,
		metricDef{Name: "sim.utilization_p32", Unit: "ratio", Better: "higher", Exact: true, Moves: virt},
		metricDef{Name: "sim.occupancy_p32", Unit: "ratio", Better: "lower", Exact: true, Moves: "nothing (polling cost, paper §5)"},
		metricDef{Name: "sim.nondeterministic_cells", Unit: "count", Better: "lower", Moves: "trust in virtual_makespan_ms, table1_geomean"},
		metricDef{Name: "sim.default_rayrot_spread_pct", Unit: "%", Better: "lower", Moves: "trust in virtual time at Default scale"},
	)
	return defs
}

// simCores is the paper's Table 1 core sweep.
var simCores = []int{1, 8, 16, 24, 32}

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
	// ExactVirtual: the workload's simulator cells repeat bit for bit at
	// equal seeds, so -compare holds its two virtual end-to-end metrics to
	// equality. True of the Small simulations of sim-table1; Default-scale
	// ray-rot (suite-native) does not repeat.
	ExactVirtual bool
}

var workloads = []workloadDef{
	{Name: "suite-native", Why: "the paper's ten apps, OmpSs vs Pthreads vs sequential; kernel bodies are ~99% of the time, so runtime changes must show no change here"},
	{Name: "fine-chains", Why: "100k ~0.1us tasks on InOut chains: spawn, Graph.Submit/Finish, queues and steals are ~90% of the time; write-only use of the tracker"},
	{Name: "fine-readers", Why: "the same layers with 3 readers beside each writer on a renamed datum: WAR edges, renamer, write-back (core.renamed is 0 on fine-chains)"},
	{Name: "serve-mix", Why: "closed loop of W clients on serve.Handler: sessions, admission, Close recycle and JSON encode at ~45 tasks per request"},
	{Name: "dist-kernels", Why: "four kernels through RunDist on the unix transport: the only workload where internal/dist runs (frame-, byte- and spawn-bound kernels)"},
	{Name: "sim-table1", Why: "the paper's Table 1 on the simulated machine: 100 simulations per pass, virtual results deterministic, host time in internal/vm and core", ExactVirtual: true},
}
