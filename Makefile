GO ?= go

# Packages cheap enough to run under the race detector on every verify:
# pure data structures and encoders, plus internal/sim, whose threads are
# coroutines the Run loop resumes one at a time, so the race detector
# checks that every switch orders the state the threads share. The
# heavier simulator packages (kernel, revoke, …) run one thread at a time
# on top of sim and are exercised by the plain `test` target.
RACE_PKGS = ./internal/bus ./internal/ca ./internal/dist/netfault \
            ./internal/expt/cliflags ./internal/fault ./internal/journal \
            ./internal/metrics ./internal/oracle ./internal/shadow \
            ./internal/sim ./internal/telemetry ./internal/tmem \
            ./internal/trace ./internal/vm ./internal/workload/heapscale

.PHONY: all fmt build vet inline test race verify flake chaos sweep-bench \
        fleet-smoke hostbench-smoke bench-test fuzz examples

all: verify

# fmt fails, naming the files, when any Go file is not gofmt-formatted.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# inline fails unless the compiler inlines sim's Thread.Tick, which every
# simulated load, store and swept granule calls, tmem's WordCaps.Get,
# which reads every capability a sweep visits, tmem's capWord.get, which
# LoadCap and ForEachTag read every capability through, tmem's
# frame.clearTag, which every data store and every revocation clears tags
# through, and shadow's Bitmap.PaintedWord, which reads the painted word
# for every tag word a sweep visits: each sits near the edge of the
# inlining budget, so a one-line edit could turn each charge, clear or
# read back into a call without changing any result.
inline:
	@out="$$($(GO) build -gcflags=-m ./internal/sim 2>&1)"; \
	if ! printf '%s\n' "$$out" | grep -q 'can inline (\*Thread).Tick$$'; then \
		echo "go build -gcflags=-m ./internal/sim no longer inlines (*Thread).Tick"; exit 1; fi
	@out="$$($(GO) build -gcflags=-m ./internal/tmem 2>&1)"; \
	if ! printf '%s\n' "$$out" | grep -q 'can inline WordCaps.Get$$'; then \
		echo "go build -gcflags=-m ./internal/tmem no longer inlines WordCaps.Get"; exit 1; fi; \
	if ! printf '%s\n' "$$out" | grep -q 'can inline (\*capWord).get$$'; then \
		echo "go build -gcflags=-m ./internal/tmem no longer inlines (*capWord).get"; exit 1; fi; \
	if ! printf '%s\n' "$$out" | grep -q 'can inline (\*frame).clearTag$$'; then \
		echo "go build -gcflags=-m ./internal/tmem no longer inlines (*frame).clearTag"; exit 1; fi
	@out="$$($(GO) build -gcflags=-m ./internal/shadow 2>&1)"; \
	if ! printf '%s\n' "$$out" | grep -q 'can inline (\*Bitmap).PaintedWord$$'; then \
		echo "go build -gcflags=-m ./internal/shadow no longer inlines (*Bitmap).PaintedWord"; exit 1; fi

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
verify: fmt build vet inline test race

# flake: the flake detector. dist's coordinator/worker protocol and expt's
# pool run on the wall clock; five runs each catch a verdict that depends
# on host speed or goroutine timing, which one tier-1 pass can miss.
flake:
	$(GO) test -count=5 ./internal/dist
	$(GO) test -count=5 -short ./internal/expt

# fuzz: short runs of the five differential fuzzers, 10 s each (go test
# -fuzz takes one target per call); go test runs only their seed inputs,
# this target searches beyond them. FuzzCapStorage (internal/tmem) drives a
# bank of frames, whose tag words pack their capability values by rank,
# through random capability stores, data stores, tag clears, copies, frees
# and sweeps (some storing anywhere into the word being swept from inside
# the sweep callback, inserting slots below and above the granule it reads
# next), checked against a flat model.
# FuzzAddressSpace (internal/vm) drives the leaf page table and its stamped
# TLBs through reservations, maps, unmaps, releases, TLB fills and
# shootdowns with dropped IPIs, checked against the map-based page table
# and TLBs they replaced. FuzzCapability (internal/ca) drives capability
# derivations with extreme perms, colors, object types and cursors, checked
# against the seven-field capability the four-word one replaced. FuzzBus
# (internal/bus) drives the flat recency-ordered caches through accesses and
# ranges on two cores over a footprint of a few sets, checked call by call
# against the struct-array cache with last-use ticks. FuzzShadow
# (internal/shadow) drives the revocation bitmap through paints, unpaints
# and every query over spans straddling its 64 KiB chunk and 4 MiB group
# edges, checked against a flat map of painted words. Each compares much
# state after every step, so minimizing a new input can outlast the budget;
# -fuzzminimizetime keeps the 10 s for searching.
fuzz:
	$(GO) test ./internal/tmem -run '^$$' -fuzz '^FuzzCapStorage$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/vm -run '^$$' -fuzz '^FuzzAddressSpace$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/ca -run '^$$' -fuzz '^FuzzCapability$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/bus -run '^$$' -fuzz '^FuzzBus$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/shadow -run '^$$' -fuzz '^FuzzShadow$$' -fuzztime 10s -fuzzminimizetime 1s

# chaos: a strict fault-injection smoke campaign against Reloaded. Every
# protocol-subverting class must be flagged by the soundness oracle and
# every infrastructure fault absorbed by abort-and-retry; any silent
# (undetected, unrecovered) fault fails the target.
chaos:
	$(GO) run ./cmd/chaos -strategies reloaded -seeds 2 -strict

# examples: run each walkthrough under examples/ once. `go build ./...`
# only compiles them; each checks the property it demonstrates and exits
# through log.Fatal when it breaks, and examples/forkserver is the one
# caller of kernel Fork outside the tests.
examples:
	@for d in $(patsubst %/main.go,%,$(wildcard examples/*/main.go)); do \
		echo "go run ./$$d"; $(GO) run ./$$d || exit 1; done

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
# including the scheduler-bound and allocation-bound fleet campaigns.
# Whether a change is faster is decided by the repository benchmark
# (bash bench/run.sh -compare). The differentials
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
