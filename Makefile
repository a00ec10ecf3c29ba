# Mirrors .github/workflows/ci.yml so every CI gate runs locally with
# one command. `make lint` is the static-analysis gate: stock go vet,
# the analyzer unit tests under -race, the pandora-vet
# protocol-invariant suite (tools/analyzers) through both the vet
# driver and its standalone -json loader (report left in
# bin/pandora-vet.json), and — when installed — staticcheck and
# govulncheck.

GO      ?= go
BIN     := bin
VETTOOL := $(BIN)/pandora-vet

.PHONY: all build lint test bench-smoke perfbench chaos-smoke proptest soak clean

all: build lint test

build:
	$(GO) build ./...

$(VETTOOL): $(wildcard cmd/pandora-vet/*.go tools/analyzers/*.go)
	$(GO) build -o $(VETTOOL) ./cmd/pandora-vet

lint: $(VETTOOL)
	$(GO) vet ./...
	$(GO) test -race ./tools/analyzers/
	$(GO) vet -vettool=$(abspath $(VETTOOL)) ./...
	$(VETTOOL) -json ./... > $(BIN)/pandora-vet.json
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping (CI runs it)"; fi

test:
	$(GO) test -race ./...

bench-smoke:
	$(GO) test -race -run '^$$' -bench . -benchtime 100x ./internal/rdma/
	$(GO) test -run 'TestHitPathZeroAlloc' ./internal/cache/
	$(GO) test -race ./internal/metrics/
	$(GO) test -run 'ZeroAlloc' ./internal/metrics/ ./internal/rdma/
	$(GO) run ./cmd/pandora-bench -experiment readcache -quick -json $(BIN)/BENCH_readcache.json -metrics $(BIN)/BENCH_metrics.json
	# Hot-lock lane: the quick run regenerates the artifact, which must
	# match the checked-in bin/BENCH_hotlock.json byte for byte (the pass
	# is sequential on a virtual clock, so the JSON is seed-deterministic).
	$(GO) run ./cmd/pandora-bench -experiment hotlock -quick -json $(BIN)/BENCH_hotlock.gen.json
	cmp $(BIN)/BENCH_hotlock.gen.json $(BIN)/BENCH_hotlock.json
	# Commit-tail lane: the pipelined commit tail experiment (legacy vs
	# fused vs async rounds-per-commit and ack latency) is sequential on a
	# virtual clock; its artifact must match bin/BENCH_commitpipe.json.
	$(GO) run ./cmd/pandora-bench -experiment commitpipe -quick -json $(BIN)/BENCH_commitpipe.gen.json
	cmp $(BIN)/BENCH_commitpipe.gen.json $(BIN)/BENCH_commitpipe.json

# Benchmark harness lane: perfbench is its own module (it imports this
# one through a replace directive), so the root `go test ./...` does not
# reach its self-tests: every workload runs briefly, its metrics match
# BENCHMARK.json, and the audit catches a planted lost update.
perfbench:
	cd perfbench && $(GO) test ./...

# Property-based litmus lane: the proptest engine's own tests, then the
# randomized multi-tx histories across the knob matrix (seeded corpus,
# byte-identical across runs; failures shrink and drop a repro file in
# bin/proptest-repro-*.json replayable with -replay).
proptest:
	$(GO) test -race ./internal/proptest/
	$(GO) test -race -run 'TestRandom|TestShrink|TestReplay' ./internal/litmus/

# Soak lane: deterministic mixed-tenant endurance run (TATP + SmallBank,
# fault schedule, tuned knobs). The quick run regenerates the artifact,
# which must match the checked-in bin/BENCH_soak.json byte for byte.
soak:
	$(GO) test -race -run 'TestSoak' ./internal/bench/
	$(GO) run ./cmd/pandora-bench -experiment soak -quick -json $(BIN)/BENCH_soak.gen.json
	cmp $(BIN)/BENCH_soak.gen.json $(BIN)/BENCH_soak.json

chaos-smoke:
	$(GO) test -race -short ./internal/chaos/
	$(GO) run ./cmd/pandora-chaos -seed 42 -events 8 >$(BIN)/a.log
	$(GO) run ./cmd/pandora-chaos -seed 42 -events 8 >$(BIN)/b.log
	cmp $(BIN)/a.log $(BIN)/b.log
	# Reconfiguration lane: 3 seeds × {coordinator, source, destination}
	# crash points, each run twice and byte-compared (crash point and
	# event log are pure functions of the seed). The last run leaves the
	# observability snapshot in $(BIN)/RECONFIG_metrics.json.
	for crash in coordinator source destination; do \
	  for seed in 1 7 42; do \
	    $(GO) run ./cmd/pandora-chaos -scenario reconfig -crash $$crash -seed $$seed \
	      -metrics $(BIN)/RECONFIG_metrics.json >$(BIN)/r-a.log || exit 1; \
	    $(GO) run ./cmd/pandora-chaos -scenario reconfig -crash $$crash -seed $$seed \
	      >$(BIN)/r-b.log || exit 1; \
	    cmp $(BIN)/r-a.log $(BIN)/r-b.log || exit 1; \
	  done; \
	done
	# Hot-lock lane: 3 seeds × {holder, waiter} crashes of a promoted
	# ticket lane, each run twice and byte-compared (the scenario is
	# fully scripted, so the event log is a pure function of the seed).
	for crash in holder waiter; do \
	  for seed in 1 7 42; do \
	    $(GO) run ./cmd/pandora-chaos -scenario hotlock -crash $$crash -seed $$seed \
	      >$(BIN)/h-a.log || exit 1; \
	    $(GO) run ./cmd/pandora-chaos -scenario hotlock -crash $$crash -seed $$seed \
	      >$(BIN)/h-b.log || exit 1; \
	    cmp $(BIN)/h-a.log $(BIN)/h-b.log || exit 1; \
	  done; \
	done
	# Commit-pipe lane: 3 seeds × {afterack, middrain, drainfail} crashes
	# of the async commit-back tail, each run twice and byte-compared,
	# with a double recovery pass (the second must be a no-op) inside
	# every run.
	for crash in afterack middrain drainfail; do \
	  for seed in 1 7 42; do \
	    $(GO) run ./cmd/pandora-chaos -scenario commitpipe -crash $$crash -seed $$seed \
	      >$(BIN)/c-a.log || exit 1; \
	    $(GO) run ./cmd/pandora-chaos -scenario commitpipe -crash $$crash -seed $$seed \
	      >$(BIN)/c-b.log || exit 1; \
	    cmp $(BIN)/c-a.log $(BIN)/c-b.log || exit 1; \
	  done; \
	done

clean:
	rm -rf $(BIN)
