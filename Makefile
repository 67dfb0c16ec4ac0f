# Developer entry points. `make ci` is the full gate: vet, build, the
# race-enabled test suite, and a one-shot run of the heaviest artifact
# benchmark. The race run narrows the determinism sweep to a
# representative artifact subset (see internal/experiments/race_on_test.go)
# but still hammers the singleflight memo and the warm pools.

GO ?= go

.PHONY: all build test race bench bench-json alloc-gate chaos ci perfbench-check policy-smoke quick resume-smoke sample-smoke serve trace-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 30m ./...

bench:
	$(GO) test -bench=BenchmarkFig14 -benchtime=1x -run '^$$' .

# Capture the simulator benchmark suite into the committed BENCH_sim.json
# trajectory (label "after" by default; override with LABEL=before to
# record a baseline before starting a perf change). Each capture is
# stamped with the current git revision; same label+rev replaces the
# latest entry, anything else appends a new trajectory point. This is a
# manual capture: `make ci` does not run it, so a CI run never rewrites
# the committed file with single iterations on an unrecorded host.
LABEL ?= after
BENCH_SUITE = 'BenchmarkSim|BenchmarkCacheLookup|BenchmarkLoopAwareVictim|BenchmarkWorkloadGen|BenchmarkFig14$$|BenchmarkFig14Sampled'
bench-json:
	( $(GO) test -bench $(BENCH_SUITE) -benchmem -benchtime=1x -run '^$$' . && \
	  $(GO) test -bench BenchmarkAccessAllocs -benchmem -benchtime=200000x -run '^$$' ./internal/sim ) \
		| $(GO) run ./cmd/benchjson -label $(LABEL) -rev $$(git rev-parse --short HEAD) -o BENCH_sim.json

# The allocation regression gate. The simulator's steady-state access
# path must not allocate: TestAccessAllocsZero enforces it per
# controller; the awk pass double-checks that every reported
# BenchmarkAccessAllocs* line says exactly 0 allocs/op (and that at least
# one such line was produced). The serving hot path has a budget:
# TestWarmRunAllocBudget holds a memo-recalled /v1/run, traced and
# logged as lapserved does by default, to 13 KiB and 45 allocations per
# request, counting the test's own httptest request and recorder.
alloc-gate:
	$(GO) test -run TestAccessAllocsZero ./internal/sim
	$(GO) test -run TestWarmRunAllocBudget ./internal/server
	$(GO) test -bench BenchmarkAccessAllocs -benchmem -benchtime=100000x -run '^$$' ./internal/sim \
		| awk '/^BenchmarkAccessAllocs/ { n++; if ($$0 !~ / 0 allocs\/op/) { bad = 1; print "FAIL:", $$0 } else print } END { exit (n == 0 || bad) }'

# Policy-registry gate: regenerate the quick-scale policy-comparison
# artifacts (fig14/15/18/19/24 — every pre-registry policy) and require
# them byte-identical to the golden captured before the registry
# refactor, then generate ext-stt and require the competitor policies
# (reuse-detector, rd-copyback) present (see cmd/policysmoke).
policy-smoke:
	$(GO) run ./cmd/policysmoke

# Sampled-simulation speed/accuracy gate: one Fig. 14 mix, exact vs
# interval-sampled across the six STT-RAM policies, asserting the
# measured speedup floor and per-policy error bound (see cmd/samplesmoke
# and the "Sampled simulation" section of EXPERIMENTS.md).
sample-smoke:
	$(GO) run ./cmd/samplesmoke

# Crash-safe checkpointing gate: boot lapserved with -checkpoint-dir,
# SIGKILL it mid-simulation, restart on the same directory, re-issue the
# run, and require the response byte-identical to an uninterrupted
# reference with at least one warm-start restore (see cmd/resumesmoke).
# The server binary goes to a fresh directory under $TMPDIR, removed
# when the target ends.
resume-smoke:
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/lapserved" ./cmd/lapserved && \
	$(GO) run ./cmd/resumesmoke -server "$$dir/lapserved"

# Race-enabled failure-domain suite: fault injection, panic isolation,
# typed corruption errors, retry/breaker/drain chaos scenarios.
chaos:
	$(GO) test -race -timeout 10m -run 'Chaos|Fault|Corrupt' ./...

ci:
	$(GO) vet ./...
	$(GO) build ./...
	$(MAKE) perfbench-check
	$(GO) test -race -timeout 30m ./...
	$(GO) test -race -timeout 10m -run 'Chaos|Fault|Corrupt' ./...
	$(MAKE) alloc-gate
	$(MAKE) policy-smoke
	$(GO) test -bench=BenchmarkFig14 -benchtime=1x -run '^$$' .
	$(MAKE) trace-smoke
	$(MAKE) sample-smoke
	$(MAKE) resume-smoke

# The repository benchmark (perfbench/) is a module of its own, so the
# root `go build ./...` and `go test ./...` never compile it. Vet it and
# run its tests (a shortened pass of every workload, golden-checked)
# against the current internal packages.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# Record a real simulation timeline with lapsim -trace and validate it
# with the strict cmd/tracecheck parser: span nesting (warmup and epochs
# inside the run), per-interval counter tracks, numeric samples. Exits
# non-zero if the trace exporter regresses. The trace goes to a fresh
# directory under $TMPDIR, removed when the target ends.
trace-smoke:
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/lapsim -policy LAP,non-inclusive -mix WH1 \
		-accesses 20000 -warmup 2000 -trace "$$dir/trace.json" -interval 1000 >/dev/null && \
	$(GO) run ./cmd/tracecheck \
		-span run,warmup,epoch \
		-counter accesses,misses,writebacks,fills,redundant_fills,loop_blocks,bypasses \
		-nested warmup:run,epoch:run "$$dir/trace.json"

# Run the simulation server on :8080 (see README "Serving simulations").
serve:
	$(GO) run ./cmd/lapserved

# Regenerate every artifact at reduced scale (serial vs parallel timing:
# add -jobs 1 / -jobs N and compare the -timings reports).
quick:
	$(GO) run ./cmd/lapexp -quick
