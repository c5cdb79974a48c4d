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
        telemetry-smoke hostbench hostbench-smoke dist-smoke \
        dist-chaos-smoke obs-smoke bench-test

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

# telemetry-smoke: end-to-end observability check. Runs a telemetry-armed
# sweep with the live introspection server on an ephemeral port, scrapes
# /metrics mid-campaign, and asserts the profiler/metrics exports land
# non-empty (folded stacks under telemetry-smoke/).
telemetry-smoke:
	./scripts/telemetry_smoke.sh

# dist-smoke: end-to-end distributed-execution check. Runs one grid on a
# local pool and again through a cmd/sweep coordinator with two cmd/worker
# processes (plus a kill-one-worker-mid-lease variant) and asserts the
# canonical documents are byte-identical (artifacts under dist-smoke/).
dist-smoke:
	./scripts/dist_smoke.sh

# dist-chaos-smoke: network-chaos + degraded-mode check. Re-runs the
# dist-smoke grid with deterministic network faults armed on both sides of
# the protocol (coordinator drops; worker drop/delay/reset/duplicate/
# reorder/throttle), a worker crash mid-lease, exponential-backoff retries
# and the per-worker circuit breaker, then a worker-cache rejoin pass —
# every canonical document must stay byte-identical to the local run
# (artifacts + cornucopia-netchaos/v1 report under dist-chaos-smoke/).
dist-chaos-smoke:
	./scripts/dist_chaos_smoke.sh

# obs-smoke: fleet-observability check. Runs the same grid on a local
# pool and through a 2-worker distributed campaign with the campaign
# journal, trace rings and canonical timeline armed, then asserts: both
# journals validate (obs validate), canonical journal and timeline are
# byte-identical across the two runs, /fleet counts completed jobs and
# the fleet_* metric families are non-empty mid-campaign, obs report
# renders a postmortem, and obs diff accepts the committed BENCH_host.json
# against itself (artifacts under obs-smoke/, cleared at the start of
# each run, so the target can be rerun).
obs-smoke:
	./scripts/obs_smoke.sh

# BENCH_host.json: the host-performance rig (internal/hostbench) — where
# the simulator spends real CPU, complementing the simulated-cycle
# documents. Runs every microbenchmark and campaign through cmd/hostbench;
# each body is an absolute ns/op row, compared across commits with
# `go run ./cmd/obs diff [-max-regress PCT] OLD NEW` over two documents
# from the same host.
hostbench: BENCH_host.json
BENCH_host.json: FORCE
	$(GO) run ./cmd/hostbench -out $@

# hostbench-smoke: CI liveness for the rig — every benchmark body runs
# once (including the heap-scale million-frame sweep and the
# allocation-bound fleet-setup campaign). The differentials against the
# replaced implementations (internal/kernel, internal/sim, internal/tmem,
# internal/shadow) and the pinned campaign and document digests
# (internal/revoke, internal/expt) run under `make verify`.
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
