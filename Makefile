GO ?= go

.PHONY: all build fmt test vet lint race farm-race oracle fuzz-smoke figures bench-sim bench-check bench-crypto bench-serve speed-smoke serve-smoke verify clean

all: verify

build:
	$(GO) build ./...

# fmt fails, listing the files, when any Go file in the tree is not
# gofmt-formatted. gofmt writes a doc-comment //senss-lint: directive as
# "// senss-lint:", which the linter reads the same way.
fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt needed:"; echo "$$files"; exit 1; fi

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

lint: build
	$(GO) run ./cmd/senss-lint ./...

race:
	$(GO) test -race ./...

# farm-race hammers the orchestration pool specifically: the worker
# pool and the result cache under the race detector with a high
# iteration count. Cheap enough to run on every change to internal/farm.
farm-race:
	$(GO) test -race -count=3 ./internal/farm

# oracle runs the shape-regression suite with the lockstep differential
# oracle attached (SENSS_ORACLE=1): every bus transaction is replayed
# against the untimed coherence and crypto reference models at zero
# cycle cost, plus the oracle unit suite (planted-bug demonstrations).
# The golden cells need no guard: they attach the oracle in plain
# `go test` (TestGoldenConformance).
oracle: build
	SENSS_ORACLE=1 $(GO) test -run 'TestShape|TestOracle' . ./internal/oracle

# fuzz-smoke gives each native fuzz target 10s of coverage-guided
# exploration against the oracle. The checked-in corpus is replayed
# deterministically by plain `go test ./internal/fuzzing`, so `test`
# (earlier in `verify`) already covers it.
fuzz-smoke: build
	$(GO) test ./internal/fuzzing -run '^$$' -fuzz '^FuzzSchedule$$' -fuzztime 10s
	$(GO) test ./internal/fuzzing -run '^$$' -fuzz '^FuzzAdversary$$' -fuzztime 10s
	$(GO) test ./internal/fuzzing -run '^$$' -fuzz '^FuzzConfig$$' -fuzztime 10s

# figures regenerates the full evaluation (Figures 6-11 + §7.1) through
# the persistent cache; a second invocation assembles from .senss-cache
# without simulating.
figures: build
	$(GO) run ./cmd/senss-tables -fig all -cache-dir .senss-cache

# Every BENCH_*.json record is written by senss-farm (cmd/senss-farm/bench.go).

# bench-sim records the raw-substrate trajectory points (simulated memory
# ops per host second, host allocations per simulated op) in
# BENCH_sim.json: one record per workload at the 4-proc bench geometry
# plus the 1-proc engine record — the pinned baseline for performance work.
bench-sim: build
	$(GO) run ./cmd/senss-farm bench-sim

# bench-check re-measures every committed BENCH_sim.json record and fails
# on a >15% ops/sec regression — the performance ratchet guarding the
# engine hot path. Part of `verify`.
bench-check: build
	$(GO) run ./cmd/senss-farm bench-check

# bench-crypto records the crypto-backend trajectory point (block
# encrypt, pad stream, CBC-MAC, and end-to-end secured throughput per
# backend, plus the stdlib/ref speedup) in BENCH_crypto.json.
bench-crypto: build
	$(GO) run ./cmd/senss-farm bench-crypto

# bench-serve records the serving-layer trajectory point (sessions/sec,
# step-latency percentiles, peak SHU-group occupancy under 4 tenants x 16
# sessions) in BENCH_serve.json.
bench-serve: build
	$(GO) run ./cmd/senss-farm bench-serve

# speed-smoke is the cheap bench-crypto invocation verify runs: quick
# intervals, output to a scratch file, but the full backend sweep and the
# cross-backend cycle-identity gate still execute.
speed-smoke: build
	$(GO) run ./cmd/senss-farm bench-crypto -quick -out /tmp/senss-speed-smoke.json

# serve-smoke is the bench-serve invocation verify runs, output to a
# scratch file: secured sessions driven through the real HTTP surface on
# an ephemeral port, failing unless the group and session books drain to
# zero — the serving layer's end-to-end self-test.
serve-smoke: build
	$(GO) run ./cmd/senss-farm bench-serve -out /tmp/senss-serve-smoke.json

# verify is the full pre-merge gate: everything CI runs, in order of
# increasing cost.
verify: build fmt vet lint test farm-race race oracle speed-smoke serve-smoke bench-check fuzz-smoke

clean:
	$(GO) clean ./...
