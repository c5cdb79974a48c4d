GO ?= go

# Packages cheap enough to run under the race detector on every verify:
# pure data structures and encoders, plus internal/sim — real goroutine +
# channel code whose scheduler hands execution between thread
# goroutines, so its handoff protocol is exactly what the race detector
# should watch. The heavier simulator packages (kernel, revoke, …) run
# one thread at a time on top of sim and are exercised by the plain
# `test` target.
RACE_PKGS = ./internal/bus ./internal/ca ./internal/dist/netfault \
            ./internal/expt/cliflags ./internal/fault ./internal/journal \
            ./internal/metrics ./internal/oracle ./internal/shadow \
            ./internal/sim ./internal/telemetry ./internal/tmem \
            ./internal/trace ./internal/vm ./internal/workload/heapscale

.PHONY: all build vet test race verify flake chaos sweep-bench \
        fleet-smoke hostbench-smoke bench-test

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# expt's pool and dist's coordinator/worker are the genuinely
# host-concurrent components; -short keeps the race pass to their
# pool/manifest/protocol mechanics (injected run functions), skipping the
# simulation-backed campaign tests.
race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -short ./internal/expt ./internal/dist

# verify is the tier-1 gate: everything must pass before a change lands.
verify: build vet test race

# flake: the flake detector. dist's coordinator/worker protocol and expt's
# pool run on the wall clock; five runs each catch a verdict that depends
# on host speed or goroutine timing, which one tier-1 pass can miss.
flake:
	$(GO) test -count=5 ./internal/dist
	$(GO) test -count=5 -short ./internal/expt

# chaos: a strict fault-injection smoke campaign against Reloaded. Every
# protocol-subverting class must be flagged by the soundness oracle and
# every infrastructure fault absorbed by abort-and-retry; any silent
# (undetected, unrecovered) fault fails the target.
chaos:
	$(GO) run ./cmd/chaos -strategies reloaded -seeds 2 -strict

# fleet-smoke: the end-to-end fleet check. Builds sweep, worker and obs
# once and runs one grid three times: a local reference (journal, canonical
# timeline, live /metrics, /healthz and /jobs scraped mid-run, the four
# telemetry exports); a chaos pass through a coordinator with network
# faults on both sides of the protocol, backoff retries, the circuit
# breaker and a worker killed mid-lease (live /fleet scraped mid-run); and
# a rejoin in which one worker replays every key from a copy of the local
# run's manifest. The distributed documents, canonical journal and
# canonical timeline must be byte-identical to the local run's, the
# journals must validate, obs report must render a postmortem, and obs
# timeline must rebuild the local run's canonical timeline from its
# manifest without writing to it (artifacts and the
# cornucopia-netchaos/v1 report under fleet-smoke/, cleared at the start
# of each run, so the target can be rerun).
fleet-smoke:
	./scripts/fleet_smoke.sh

# hostbench-smoke: CI liveness for the host-performance benchmarks
# (internal/hostbench, a test-only package): every benchmark runs once,
# including the heap-scale million-frame sweep and the allocation-bound
# fleet-setup campaign. Whether a change is faster is decided by the
# repository benchmark (bash bench/run.sh -compare). The differentials
# against the replaced implementations (internal/kernel, internal/sim,
# internal/tmem, internal/shadow) and the pinned campaign and document
# digests (internal/revoke, internal/expt) run under `make verify`.
hostbench-smoke:
	$(GO) test ./internal/hostbench -bench . -benchtime=1x -count=1

# bench-test: the repository benchmark's own tests (bench/ is a separate
# module, so `go test ./...` skips it). They run the full figure grid and
# check its simulated digest against bench/golden.json and its tables
# against BENCH_sweep.json, which a host-only change must leave untouched
# (~30-45 s).
bench-test:
	cd bench && $(GO) test .

# BENCH_sweep.json: one reduced-rep pass over every figure and table,
# emitted as the machine-readable cornucopia-sweep/v1 document for
# perf-trajectory tracking (~15 s of virtual workload per invocation).
sweep-bench: BENCH_sweep.json
BENCH_sweep.json: FORCE
	$(GO) run ./cmd/sweep -reps 1 -scale 256 -txs 1000 \
		-measure-ms 100 -warmup-ms 10 -out $@

.PHONY: FORCE
FORCE:
