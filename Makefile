# Mirrors .github/workflows/ci.yml so contributors run exactly what CI runs.

GO ?= go

.PHONY: all build test equiv census flake race bench bench-submit alloc-budget escape pairs layout lint lint-lifecycle lint-core lint-dist trace dist-trace serve serve-smoke dist-race fuzz-frames soak ci

all: build test

build:
	$(GO) build ./...

# benchmark/ is a nested module (the instrument behind BENCHMARK.json), so
# ./... does not reach it: vet and test it by name. Its TestSmoke runs all
# six workloads — the distributed one over unix and TCP — verifies every
# operation against the sequential reference and asserts none failed; it
# holds no wall-clock assertion.
test:
	$(GO) test -shuffle=on ./...
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

# The simulator's exact gate (the CI verify job runs it too): every recorded
# (time, seq, kind, thread) event stream in internal/vm/testdata must be
# reproduced as is — by a change to internal/vm's dispatch and by a change to
# the task lifecycle in ompss alike. The digests are pinned for amd64; there
# a skip would mean the gate silently stopped gating, so it fails.
equiv:
	@out="$$($(GO) test ./internal/vm -run TestEventStreamsMatchRecorded -count=1 -v 2>&1)"; st=$$?; \
	echo "$$out" | grep -v -e '^=== ' ; [ $$st -eq 0 ] || exit $$st; \
	if [ "$$($(GO) env GOARCH)" = amd64 ] && echo "$$out" | grep -q -e '--- SKIP'; then \
		echo "equiv: TestEventStreamsMatchRecorded skipped on amd64" >&2; exit 1; fi

# API census (the CI verify job runs it as its own step): every exported
# name of every non-main package of the module must have a non-test caller
# in the module or benchmark/, or a reasoned entry on its package's capped
# allowlist; every function and method a command (cmd/*, examples/*)
# declares must be referenced by non-test code. -v prints each package's
# table.
census:
	$(GO) test ./ompss -run '^TestAPICensus$$' -count=1 -v

# Flake sweep (the CI `flake` job): every package ten times in shuffled
# order. No test's verdict may depend on the clock, so this must pass on a
# loaded 2-CPU host.
flake:
	$(GO) test -count=10 -shuffle=on ./...

# Race-detector pass over the concurrent executor packages (the CI `race` job).
# ./internal/vm is in the list because the simulator's token is the only
# synchronisation between the goroutines of one VM; ./internal/suite/streamcluster
# because its prescan writes disjoint Assign/DistTo ranges from several
# tasks or threads while every one of them reads Open.
race:
	$(GO) test -race -shuffle=on ./ompss ./internal/core ./internal/obs ./internal/obs/metrics ./internal/serve ./internal/dist ./pthread ./internal/vm ./machine ./internal/suite/streamcluster

# Run every benchmark for one iteration so benchmark code cannot rot
# (the CI `bench-smoke` job). For real numbers, raise -benchtime.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Submit-path allocation benchmark: registered *Datum handles vs the
# any-key compatibility path (the CI bench-smoke job runs this with
# -benchmem so handle-path regressions show up in the log).
bench-submit:
	$(GO) test ./ompss -run='^$$' -bench=BenchmarkSubmit -benchmem -benchtime=300000x

# Allocation regression guard: fails when any submit benchmark exceeds the
# allocs/op ceiling in ompss/testdata/alloc_budget.json (the wide-task row,
# BenchmarkSubmitWide, at 0: six accesses whose lists the pooled record
# keeps), when one of the simulator's three commonest dispatches allocates
# at all, or when a served kernel request allocates more bytes than its
# endpoint's ceiling in TestRequestAllocBudget (7, 17 and 32 KB for rotate,
# rgbcmy and h264dec; the CI bench-smoke job runs this).
alloc-budget:
	$(GO) test ./ompss ./internal/vm ./internal/serve -run='^(TestSubmitAllocBudget|TestVMEventAllocs|TestRequestAllocBudget)$$' -count=1 -v

# Clause escape guard (the CI bench-smoke job runs it): every clause
# constructor of package ompss must inline, and no clause record or clause
# key slice built inside a for loop of internal/suite may escape to the heap
# (scripts/escape.sh reads go build -gcflags=-m and names the file:line).
escape:
	GO=$(GO) sh scripts/escape.sh

# Alternating parent/change pairs for a perf claim (not part of `make ci`):
# builds the benchmark binary at BASE and at the working tree, runs them N
# times each for BENCHMARK.json's run_seconds, alternating, into
# pairs.base.json and pairs.head.json, prints -compare of the two and METRIC
# per pair. Seed i mod len(SEEDS) runs pair i.
# Example: make pairs BASE=HEAD~1 W=fine-chains N=10 SEEDS="1 2 3"
BASE ?= HEAD
W ?= fine-chains
N ?= 10
SEEDS ?= 1
METRIC ?= bytes_moved
pairs:
	sh scripts/pairs.sh '$(BASE)' '$(W)' '$(N)' '$(SEEDS)' '$(METRIC)'

# Code layout of the benchmark binary at BASE beside the working tree: the
# first text address mod 64 of internal/core, ompss, internal/vm, the md5
# and rotate kernels and main (scripts/layout.sh; writes nothing here). Run
# it before believing a reference-ratio or setup_s move the diff cannot
# reach. Example: make layout BASE=HEAD~1
layout:
	sh scripts/layout.sh '$(BASE)'

# Profile one suite app with the observability recorder attached: record a
# raw trace, print the analyzer report (parallelism profile, critical path,
# per-worker utilization, steal matrix), and export Chrome trace-event JSON
# — open trace.chrome.json in chrome://tracing or ui.perfetto.dev — plus the
# task graph as Graphviz DOT (dot -Tsvg trace.dot). The CI bench-smoke job
# runs the same pipeline and uploads the Chrome trace as an artifact.
# Override: make trace TRACE_BENCH=c-ray TRACE_WORKERS=4
TRACE_BENCH ?= h264dec
TRACE_WORKERS ?= 2
trace:
	$(GO) run ./cmd/ompss-trace record -bench $(TRACE_BENCH) -workers $(TRACE_WORKERS) -o trace.raw.json
	$(GO) run ./cmd/ompss-trace analyze trace.raw.json
	$(GO) run ./cmd/ompss-trace export -format chrome -o trace.chrome.json trace.raw.json
	$(GO) run ./cmd/ompss-trace export -format dot -o trace.dot trace.raw.json

# Cross-process trace of a distributed run (the CI dist-smoke job): the
# coordinator and every worker process record their own rings, the worker
# streams ship back over the dispatch connection, and the merge aligns each
# worker's clock before interleaving — one timeline, one track per worker
# incarnation. The merged stream is reconciled against the run's transfer
# accounting before it is written. Override: make dist-trace DIST_TRACE_BENCH=kmeans
DIST_TRACE_BENCH ?= rotate
DIST_TRACE_WORKERS ?= 2
dist-trace:
	$(GO) run ./cmd/ompss-trace record -bench $(DIST_TRACE_BENCH) -dist -dist-workers $(DIST_TRACE_WORKERS) -small -o trace.dist.json
	$(GO) run ./cmd/ompss-trace analyze trace.dist.json
	$(GO) run ./cmd/ompss-trace export -format chrome -o trace.dist.chrome.json trace.dist.json

# Boot the multi-tenant service runtime on :8080 (Ctrl-C to stop). See
# README "Serving requests" for the endpoints and tenant headers.
serve:
	$(GO) run ./cmd/ompss-serve -addr :8080

# The CI serve-smoke job's legs, in order. (1) Boot ompss-serve, run the
# smoke against it over HTTP, then scrape its /metrics and check the scrape
# (scripts/serve-metrics.sh: every tenant class counted, 0 violations each).
# (2) The smoke against the process's own server on a loopback listener.
# (3) Load shedding: with a 16-task run-ahead window, -reject answers 429
# with Retry-After at the door to a request that arrives while the window is
# full, and the smoke's client waits as asked. (4) SIGTERM a live server: it
# drains and exits 0. The smoke exits 1 on any unexpected answer (a kernel
# 500 is an isolation violation) or when no kernel request answered 200; the
# tally it prints is a by-product, the measured service numbers are the
# benchmark's serve-mix workload.
SMOKE_BIN = /tmp/ompss-serve
serve-smoke:
	$(GO) build -o $(SMOKE_BIN) ./cmd/ompss-serve
	$(SMOKE_BIN) -addr 127.0.0.1:18080 -workers 2 & pid=$$!; \
	for i in $$(seq 1 50); do curl -fsS http://127.0.0.1:18080/healthz >/dev/null 2>&1 && break; sleep 0.2; done; \
	$(SMOKE_BIN) -load -target http://127.0.0.1:18080 -duration 5s && \
	curl -fsS http://127.0.0.1:18080/metrics -o /tmp/metrics.prom && \
	scripts/serve-metrics.sh /tmp/metrics.prom; st=$$?; kill $$pid; wait $$pid; exit $$st
	$(SMOKE_BIN) -load -duration 5s
	$(SMOKE_BIN) -load -reject -max-inflight 16 -duration 3s
	$(SMOKE_BIN) -addr 127.0.0.1:18081 -workers 2 -drain-timeout 10s & pid=$$!; \
	for i in $$(seq 1 50); do curl -fsS http://127.0.0.1:18081/healthz >/dev/null 2>&1 && break; sleep 0.2; done; \
	kill -TERM $$pid; wait $$pid

# The distributed coordinator and suite adapters under the race detector,
# including the worker-kill fault-confinement leg.
dist-race:
	$(GO) test -race -count=1 -run 'TestDist' ./internal/dist
	$(GO) test -race -count=1 -run 'TestDistMatchesSequential|TestRGBCMYCacheReuse' ./internal/suite/distkern

# Short native-fuzz leg over the dist wire codec (the CI race job runs the
# same with -fuzztime=30s).
fuzz-frames:
	$(GO) test ./internal/dist -run='^$$' -fuzz=FuzzFrameDecode -fuzztime=15s

# Session-churn soak (the CI dist-smoke job): churn hundreds of request
# sessions and assert the live dependence-record count returns to the
# pre-churn baseline. Gated behind -soak so ordinary test runs stay fast.
soak:
	$(GO) test ./internal/serve -run 'TestSoakSessionChurn' -soak -count=1 -v

# Mirrors the CI `lint` job (plus the verify job's vet/gofmt steps) so
# local and CI checks stay in lockstep. staticcheck and govulncheck are
# installed on demand by CI; locally they are skipped with a hint when not
# on PATH.
lint: lint-lifecycle lint-core lint-dist
	$(GO) vet ./...
	@! grep -rl --include='*.go' '"encoding/gob"' . || { echo "encoding/gob is imported above; the dist wire codec is hand-written (internal/dist/proto.go)" >&2; exit 1; }
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else \
		echo "lint: staticcheck not installed (go install honnef.co/go/tools/cmd/staticcheck@latest); skipping" >&2; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; else \
		echo "lint: govulncheck not installed (go install golang.org/x/vuln/cmd/govulncheck@latest); skipping" >&2; fi

# One task lifecycle (ompss/lifecycle.go): outside tests, package ompss wires,
# finishes, enqueues and pops tasks in one place each (Pop: the worker loop
# and the help-first wait), so a second copy of the lifecycle cannot grow
# back unnoticed. graph.Unfinished is read in three: the run-ahead predicate,
# the Shutdown drain and the simulator's end-of-work wake — a fourth would be
# a second runtime-level bound. Task records are made in one place,
# newTaskRec, when the pool has none: everything else takes them from the
# pool. The CI verify job runs this target.
lint-lifecycle:
	@for want in 'graph\.Submit(:1:1' 'graph\.Finish(:1:1' 'sched\.PushSubmit(:1:1' 'sched\.PushReady(:1:1' 'sched\.Pop(:1:2' 'graph\.Unfinished(:3:3'; do \
		pat=$${want%%:*}; lim=$${want#*:}; \
		n=$$(grep -rho --include='*.go' --exclude='*_test.go' -e "$$pat" ompss | wc -l); \
		if [ $$n -lt $${lim%:*} ] || [ $$n -gt $${lim#*:} ]; then \
			echo "lint: $$n call sites of $$pat in non-test ompss/ (want $${lim%:*}..$${lim#*:}); the task lifecycle lives in ompss/lifecycle.go only" >&2; exit 1; fi; \
	done
	@n=$$(grep -rho --include='*.go' --exclude='*_test.go' -e 'taskRec{' ompss | wc -l); \
	if [ $$n -ne 1 ]; then echo "lint: $$n sites of taskRec{ in non-test ompss/ (want 1: newTaskRec); take records from the pool (getRec)" >&2; exit 1; fi

# One key space in the dependence tracker (internal/core): every key is
# interned once into its Datum through the graph's single key map, and a
# datum is homed by its registration ordinal, never by hashing the key. So
# non-test internal/core may import no "reflect" and declare one map keyed
# by any. The CI verify job runs this target.
lint-core:
	@! grep -l --include='*.go' --exclude='*_test.go' -r '"reflect"' internal/core || { echo "lint: internal/core imports reflect; datums are homed by registration ordinal, not by hashing keys" >&2; exit 1; }
	@n=$$(grep -rhE --include='*.go' --exclude='*_test.go' '^[[:space:]]*(var[[:space:]]+)?[[:alnum:]_]+[[:space:]]+map\[(any|interface\{\})\]' internal/core | wc -l); \
	if [ $$n -gt 1 ]; then echo "lint: $$n map[any] declarations in non-test internal/core (want 1: the graph's intern table)" >&2; exit 1; fi

# One listening socket per distributed run: the coordinator's rendezvous
# (listenRendezvous in internal/dist/transport.go). Workers only dial out —
# the coordinator holds every datum version and ships each read a worker
# lacks inline in its task frame, so no worker serves another. Non-test
# internal/dist may call net.Listen* nowhere else. The CI verify job runs
# this target.
lint-dist:
	@bad=$$(awk '/^func /{fn=$$0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/\(.*/, "", fn)} \
		/net\.Listen[[:alnum:]]*\(/{print FILENAME ":" FNR ": " fn}' \
		$$(ls internal/dist/*.go | grep -v '_test\.go$$') | grep -v '^internal/dist/transport\.go:[0-9]*: listenRendezvous$$'); \
	if [ -n "$$bad" ]; then echo "lint: net.Listen outside listenRendezvous in non-test internal/dist (workers only dial out):" >&2; echo "$$bad" >&2; exit 1; fi

ci: build lint test equiv census flake race bench bench-submit alloc-budget escape serve-smoke dist-race dist-trace soak
