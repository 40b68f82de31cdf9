# Standard developer entry points. Everything is stdlib Go; no external
# tools required.

GO ?= go
# Per-target fuzzing budget; CI overrides this (short on PRs, long on the
# scheduled job).
FUZZTIME ?= 10s
# The engine benchmark set, shared by bench-engine, bench-gate and
# bench-baseline so the three cannot drift apart.
ENGINE_BENCH = BenchmarkEngineWorkers|BenchmarkEngineComposition|BenchmarkEngineScheduler|BenchmarkEngineFaults|BenchmarkEngineCheckpoint|BenchmarkComputeBackend|BenchmarkOracleServeDist|BenchmarkOracleSnapshot|BenchmarkRouter

.PHONY: all build test race cover cover-gate cover-baseline bench bench-engine cluster-smoke bench-gate bench-baseline ledger-build experiments fuzz trace-demo crash-demo race-crash serve-demo serve-smoke trace-smoke chaos-smoke clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The crash/restore conformance sweep under the race detector: checkpoint,
# kill, restore and supervised-restart paths across every protocol family.
race-crash:
	$(GO) test -race -count=1 -run 'TestCheckpoint|FuzzCheckpointRoundTrip' .

cover:
	$(GO) test -cover ./...

# Per-package coverage regression gate: cmd/covergate reads the merged
# module-wide profile (-coverpkg=./...: a statement is covered when any
# package's tests ran it) and compares each package against the committed
# COVERAGE.json floors, failing on any package dropping below its floor
# (or disappearing). cover.out (gitignored) also serves
# `go tool cover -html=cover.out`; the test log survives for post-mortems,
# same rationale as bench-gate.
cover-gate:
	$(GO) test -coverpkg=./... -coverprofile=cover.out ./... > cover_test.out
	$(GO) run ./cmd/covergate -baseline COVERAGE.json < cover.out

# Rewrite the coverage floors from a fresh run (commit the result
# deliberately); the default 2-point margin absorbs run-to-run jitter
# from timing-dependent branches.
cover-baseline:
	$(GO) test -coverpkg=./... -coverprofile=cover.out ./... > cover_test.out
	$(GO) run ./cmd/covergate -baseline COVERAGE.json -update < cover.out

# One iteration of every benchmark: the engine, kernel and serving
# micro-benchmarks. The paper's tables are regenerated by apspbench
# (`make experiments`, or `apspbench -exp <id>` for one).
bench:
	$(GO) test -bench . -benchmem -benchtime 1x ./...

# Engine micro-benchmarks: intra-round parallel speedup, the dense vs
# active-set scheduler comparison on both activity extremes, the fault
# shim's cost, the checkpoint hook's overhead, and the serving path's
# tracing + resilient-client overhead (client off/on, injector disabled).
bench-engine:
	$(GO) test -run '^$$' -bench '$(ENGINE_BENCH)' -benchtime 1x .

# Engine allocation regression gate: run the engine benchmark set with
# -benchmem and compare B/op and allocs/op against the committed
# BENCH_engine.json baseline via cmd/benchgate. Nothing here reads time:
# a wall-clock claim is made with the ledger procedure (benchmark/README.md
# — two checkouts, interleaved pairs). -cpu 1 pins GOMAXPROCS, which caps
# the engine's per-round fork width: no round forks, so no row's
# allocations depend on how long its rounds took on this host. The
# intermediate file (gitignored) is kept for post-mortems and because sh
# make recipes have no pipefail — a crashed bench run must not feed an
# empty stream to the gate.
GATE_BENCH = $(GO) test -run '^$$' -bench '$(ENGINE_BENCH)' -benchmem -benchtime 10x -count 2 -cpu 1 .

bench-gate:
	$(GATE_BENCH) > bench_engine.out
	$(GO) run ./cmd/benchgate -baseline BENCH_engine.json < bench_engine.out

# Rewrite the baseline from a fresh run (commit the result deliberately;
# `git log -p BENCH_engine.json` is its history).
bench-baseline:
	$(GATE_BENCH) > bench_engine.out
	$(GO) run ./cmd/benchgate -baseline BENCH_engine.json -update < bench_engine.out

# The ledger harness (BENCHMARK.json's command) is a nested module that
# imports repro/internal/...; `go build ./...` here does not reach it, so
# build, vet and test it explicitly. CI runs this.
ledger-build:
	$(GO) build -C benchmark -o /dev/null .
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The full-size experiment sweep (writes the tables EXPERIMENTS.md records).
experiments:
	$(GO) run ./cmd/apspbench

experiments-md:
	$(GO) run ./cmd/apspbench -md

# Phase-attributed tracing demo: BlockerAPSP on a small grid with every
# observability sink enabled. Prints the per-phase cost table; the trace
# file locations land on stderr (open out/trace.chrome.json in
# chrome://tracing or Perfetto).
trace-demo:
	mkdir -p out
	$(GO) run ./cmd/apsprun -alg blocker -grid 6x6 -maxw 8 -zero 0.2 -quiet \
		-phases -trace out/trace.jsonl -metrics out/metrics.prom \
		-stats-json out/stats.json

# Crash-recovery demo: a scripted crash-stop fault on node 3 at round 10
# (restarting one round later) under periodic checkpointing. The supervisor
# restores the latest snapshot and the run completes bit-identically to a
# fault-free run; the final checkpoint lands in out/crash.ckpt, and the
# second line resumes from that file (same -crash plan: the fault plan is
# part of the checkpoint's identity). The third line is the same drill on
# the multi-run blocker family (every engine run takes the periodic
# checkpoint, the parent re-selection run included).
crash-demo:
	mkdir -p out
	$(GO) run ./cmd/apsprun -alg pipeline -n 48 -m 160 -quiet -check \
		-crash 3@10+1 -checkpoint-every 8 -checkpoint out/crash.ckpt
	$(GO) run ./cmd/apsprun -alg pipeline -n 48 -m 160 -quiet -check \
		-crash 3@10+1 -resume out/crash.ckpt
	$(GO) run ./cmd/apsprun -alg blocker -n 48 -m 160 -quiet -check \
		-crash 3@10+1 -checkpoint-every 8

# Distance-oracle daemon on :8080 over a 256-node random graph — the
# README "Serving queries" quickstart. Ctrl-C (or SIGTERM) drains
# in-flight queries and exits cleanly.
serve-demo:
	$(GO) run ./cmd/apspd -addr :8080 -n 256 -m 1024 -maxw 8 -zero 0.25 -seed 7

# End-to-end daemon smoke test: boot apspd on a random port, answer
# /healthz and /dist, then drain on SIGTERM and exit 0. CI runs this.
serve-smoke:
	./scripts/serve_smoke.sh

# End-to-end tracing smoke test: boot apspd with -trace, fire traced
# queries (incl. a W3C traceparent continuation), check /debug/live, then
# validate the emitted span JSONL with cmd/tracecheck. CI runs this.
trace-smoke:
	./scripts/trace_smoke.sh

# Chaos drill: boot apspd with listener-level fault injection and an
# autosave dir, kill -9 mid-load, restart, and verify the reborn daemon
# recovered the autosaved snapshot and answers identically. CI runs this.
chaos-smoke:
	./scripts/chaos_smoke.sh

# Cluster drill: two apspd shard backends behind apsprouter, routed
# answers byte-compared against a single whole-graph daemon, a real
# kill -9 of one backend (degraded-but-correct serving), supervisor
# restart on the same port, and a clean drain. CI runs this.
cluster-smoke:
	./scripts/cluster_smoke.sh

# A short fuzzing burst on every fuzz target in the module: the targets
# are discovered (`go test -list`), not listed here, so one added next to
# a new parsing surface cannot be forgotten. One -fuzz run per target, as
# the fuzzer requires.
fuzz:
	@set -e; list=$$($(GO) test -list '^Fuzz' ./...); echo "$$list" \
		| awk '/^Fuzz/ { t[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, t[i]; n = 0 }' \
		| while read pkg target; do \
			echo "fuzz $$target ($$pkg)"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) $$pkg; \
		done

clean:
	$(GO) clean ./...
