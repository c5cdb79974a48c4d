// Command sweep regenerates any subset of the paper's evaluation (§5) —
// or the whole thing — through the internal/expt orchestrator: the
// selected figures' grids are expanded into independent (workload,
// condition, seed) jobs, sharded across -workers host goroutines, and
// folded into the paper's tables. Aggregated output is byte-identical at
// any worker count, because every job is deterministic per seed and boots
// its own cold machine. Figure 7's table is followed by an ASCII latency
// CDF and Figure 9's by per-benchmark ASCII box strips.
//
// One invocation per suite regenerates the evaluation piecewise:
//
//	sweep -figures fig1,fig2,fig3,fig4,table2   # SPEC CPU2006 INT
//	sweep -figures fig5,fig6,fig7,table1        # PostgreSQL pgbench
//	sweep -figures fig8                         # gRPC QPS
//	sweep -figures fig9 -reps 2                 # revocation phase times
//
// Usage:
//
//	sweep [-figures all|fig1,table2,...] [-workers N] [-timeout D] [-retries N]
//	      [-retry-backoff D] [-resume FILE] [-compact] [-out results.json]
//	      [-canonical] [-dry-run] [-progress]
//	      [-exec local|net] [-listen ADDR] [-addr-file FILE] [-heartbeat D]
//	      [-retry-backoff-max D] [-retry-jitter F]
//	      [-netfault CLASSES] [-netfault-seed N] [-netfault-rate P]
//	      [-netfault-max N] [-netfault-delay D] [-netfault-partition-frac F]
//	      [-breaker-failures N] [-breaker-cooldown D]
//	      [-evict-after D] [-local-fallback D]
//	      [-http ADDR] [-http-linger D]
//	      [-journal FILE] [-timeline FILE] [-timeline-canonical]
//	      [-trace-events N]
//	      [-cpuprofile FILE] [-memprofile FILE]
//	      [-prof-folded FILE] [-prof-pprof FILE] [-metrics-out FILE]
//	      [-series-csv FILE] [-sample-every N]
//	      [-reps N] [-scale N] [-txs N] [-measure-ms N] [-warmup-ms N] [-seed N]
//
// -dry-run resolves the selected figures' grids without executing
// anything and prints every distinct job (content-hash key, workload,
// condition, seed) plus a dedup summary — the exact cells a real
// invocation would run or serve from a manifest.
//
// -exec=net runs the same campaign distributed: this process becomes the
// coordinator (see internal/dist), listening on -listen for cmd/worker
// processes and leasing grid cells to them over the cornucopia-dist/v1
// protocol. Every document and manifest such a campaign writes is
// byte-identical to a local run's (jobs are deterministic per seed;
// -canonical strips the host-side execution metadata — per-job host_ms,
// attempt counts, pool counters — that legitimately differs).
//
// -journal appends a campaign journal (cornucopia-journal/v1 JSONL) of
// every job submit/start/retry/result and — under -exec=net — every
// worker join/evict, lease grant/reclaim, breaker trip and injected
// network fault, for cmd/obs postmortems. -timeline writes a merged
// Chrome/Perfetto timeline (open in chrome://tracing or ui.perfetto.dev)
// with each worker as a named process track; -timeline-canonical strips
// the host metadata so local and distributed runs of the same grid
// produce byte-identical timelines. -trace-events N arms the per-job
// simulated-cycle tracer (internal/trace) with an N-event ring whose
// contents ride the telemetry snapshots into manifests and timelines.
//
// -cpuprofile/-memprofile write host pprof profiles — real time and
// allocations, complementing the simulated-cycle telemetry exports below.
//
// -resume FILE attaches an on-disk manifest keyed by job content hash:
// completed jobs are recorded as they finish, and a re-invoked sweep
// serves them from the manifest instead of recomputing. Interrupt a sweep
// at any point and rerun it to pick up where it left off. The manifest's
// header records the figure set and grid flags that produced it; resuming
// with different flags fails immediately with a description of the
// mismatch (rerun with matching flags, or point -resume at a fresh file).
//
// -out FILE additionally writes a machine-readable JSON document (schema
// cornucopia-sweep/v1): every figure's rows, every job's headline
// measurements, and per-(workload, condition) aggregate distributions —
// suitable for BENCH_*.json perf-trajectory tracking.
//
// The telemetry exports (-prof-folded, -prof-pprof, -metrics-out,
// -series-csv) arm per-job cycle profiling and metrics recording
// (internal/telemetry): every job's profile is conservation-checked, and
// the merged exports are byte-identical at any -workers count. -http
// serves live campaign progress and the merged metrics while the sweep
// runs (see internal/telemetry.Live).
//
// -scale N sets the SPEC footprint divisor; pgbench runs at N/8 and gRPC
// QPS at N, preserving the suites' relative scales.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/expt"
	"repro/internal/expt/cliflags"
	"repro/internal/harness"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	figures := flag.String("figures", "all", "comma-separated figure ids (fig1..fig9, table1, table2, heapscale) or 'all'")
	list := flag.Bool("list", false, "list figure ids and exit")
	shared := cliflags.Register()
	out := flag.String("out", "", "write machine-readable JSON results to this file")
	canonical := flag.Bool("canonical", false, "strip host-execution metadata (host_ms, attempts, pool counters) from -out for byte-stable diffs")
	dryRun := flag.Bool("dry-run", false, "resolve and print the job grid (keys, workloads, conditions, seeds) without executing")
	profFolded := flag.String("prof-folded", "", "write the merged cycle profile as folded flame-graph stacks to this file")
	profPprof := flag.String("prof-pprof", "", "write the merged cycle profile as a gzipped pprof proto to this file")
	metricsOut := flag.String("metrics-out", "", "write the merged final metrics in OpenMetrics text format to this file")
	seriesCSV := flag.String("series-csv", "", "write every job's sampled time series as CSV to this file")
	sampleEvery := flag.Uint64("sample-every", telemetry.DefaultSampleEvery, "time-series sampling interval, simulated cycles")
	reps := flag.Int("reps", 3, "runs per grid cell")
	scale := flag.Uint64("scale", 64, "SPEC footprint divisor (pgbench scales at 1/8 of this)")
	txs := flag.Int("txs", 6000, "pgbench transactions per run")
	measureMs := flag.Uint64("measure-ms", 500, "gRPC QPS measurement window, virtual milliseconds")
	warmupMs := flag.Uint64("warmup-ms", 50, "gRPC QPS warmup, virtual milliseconds")
	seed := flag.Int64("seed", 1, "base random seed")
	flag.Parse()

	if *list {
		for _, f := range expt.Figures() {
			fmt.Printf("%-8s %s\n", f.ID, f.Title)
		}
		return
	}

	// Host-side profiling (-cpuprofile/-memprofile): where the simulator
	// spends real time, as opposed to the simulated-cycle profiler below.
	stopProf, err := shared.StartProfiles()
	if err != nil {
		log.Fatal(err)
	}

	o := expt.DefaultOptions()
	o.Reps = *reps
	o.Txs = *txs
	o.SpecCfg.Scale = *scale
	o.SpecCfg.Seed = *seed
	o.PgCfg.Seed = *seed
	o.QPSCfg.Seed = *seed
	if *scale != 64 {
		pg := *scale / 8
		if pg == 0 {
			pg = 1
		}
		o.PgCfg.Scale = pg
		o.QPSCfg.Scale = *scale
	}
	perMs := uint64(o.QPSCfg.Machine.Sim.HzGHz * 1e6)
	o.Measure = *measureMs * perMs
	o.Warmup = *warmupMs * perMs

	var selected []expt.Figure
	if *figures == "all" {
		selected = expt.Figures()
	} else {
		for _, id := range strings.Split(*figures, ",") {
			id = strings.TrimSpace(id)
			f, ok := expt.ByID(id)
			if !ok {
				log.Fatalf("unknown figure %q (use -list)", id)
			}
			selected = append(selected, f)
		}
	}

	if *dryRun {
		// Resolve the grids through a Planner: the figure builders run to
		// completion against synthetic results, recording every cell they
		// would request. Their tables are meaningless and are not shown.
		planner := expt.NewPlanner()
		for _, f := range selected {
			if _, err := f.Build(o, planner); err != nil {
				log.Fatalf("%s: dry-run: %v", f.ID, err)
			}
		}
		if err := planner.WriteGrid(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	// Telemetry is armed by any consumer of it: an export file, the live
	// server's merged-metrics families, or the cycle tracer (trace rings
	// ride inside telemetry snapshots).
	wantTelem := *profFolded != "" || *profPprof != "" || *metricsOut != "" ||
		*seriesCSV != "" || shared.Live.Addr != "" || shared.TraceEvents > 0

	// The manifest header pins the exact grid this file caches: the
	// sorted figure set plus every flag that changes job content. A
	// -resume against a file written with different flags fails up
	// front instead of silently re-running (or worse, mixing) grids.
	ids := make([]string, len(selected))
	for i, f := range selected {
		ids[i] = f.ID
	}
	sort.Strings(ids)
	grid := fmt.Sprintf("figures=%s reps=%d scale=%d txs=%d measure-ms=%d warmup-ms=%d seed=%d",
		strings.Join(ids, ","), *reps, *scale, *txs, *measureMs, *warmupMs, *seed)
	if wantTelem {
		// Sample interval shapes the recorded series; mixing intervals in
		// one manifest would merge incomparable rows.
		grid += fmt.Sprintf(" telemetry-sample-every=%d", *sampleEvery)
	}
	if shared.TraceEvents > 0 {
		// Ring depth shapes the recorded trace the same way: snapshots
		// cached under one depth must not resume a run expecting another.
		grid += fmt.Sprintf(" trace-events=%d", shared.TraceEvents)
	}
	manifest, err := shared.Manifest("sweep", grid)
	if err != nil {
		log.Fatal(err)
	}
	if manifest != nil {
		defer manifest.Close()
		if n := manifest.Len(); n > 0 {
			fmt.Printf("resuming: %d completed job(s) on record in %s\n", n, shared.Resume)
		}
	}

	pcfg, live, err := shared.PoolConfig("sweep", manifest)
	if err != nil {
		log.Fatal(err)
	}
	if wantTelem {
		pcfg.Telemetry = &telemetry.Options{SampleEvery: *sampleEvery, TraceEvents: shared.TraceEvents}
	}
	pool, closeExec, err := shared.NewExecutor("sweep", grid, pcfg, live)
	if err != nil {
		log.Fatal(err)
	}
	if live != nil && wantTelem {
		live.SetMetricsSource(func() *telemetry.Snapshot {
			return telemetry.Merge(telemetrySnaps(pool))
		})
	}

	// Build every selected figure concurrently: each figure prefetches its
	// whole grid up front, so the pool sees the union of all grids at once
	// (overlapping cells dedupe by content hash) and keeps all workers
	// busy. Tables print in selection order regardless of finish order.
	start := time.Now()
	type built struct {
		tb  *harness.Table
		err error
	}
	done := make([]chan built, len(selected))
	for i, f := range selected {
		done[i] = make(chan built, 1)
		go func(f expt.Figure, ch chan built) {
			tb, err := f.Build(o, pool)
			ch <- built{tb, err}
		}(f, done[i])
	}
	var figResults []expt.FigureResult
	failed := false
	for i, f := range selected {
		b := <-done[i]
		if b.err != nil {
			log.Printf("%s: %v", f.ID, b.err)
			failed = true
			continue
		}
		b.tb.Fprint(os.Stdout)
		figResults = append(figResults, expt.NewFigureResult(f.ID, b.tb))
		p, err := plot(f.ID, b.tb, o, pool)
		if err != nil {
			log.Printf("%s: plot: %v", f.ID, err)
			failed = true
			continue
		}
		fmt.Print(p)
	}
	// Every Get has returned: drain the worker fleet (no-op under
	// -exec=local) before reporting.
	if err := closeExec(); err != nil {
		log.Printf("closing executor: %v", err)
	}
	st := pool.Stats()
	fmt.Printf("sweep: %d job(s) ran, %d from manifest, %d retried, %d failed; %d worker(s), %.1fs host wall clock\n",
		st.Executed, st.Cached, st.Retries, st.Failed, shared.Workers, time.Since(start).Seconds())

	if err := shared.WriteTimeline("sweep", pool); err != nil {
		log.Fatal(err)
	}

	if *out != "" {
		doc := expt.BuildDocument(pool, figResults, shared.Workers, *reps, *scale)
		if *canonical {
			doc.Canonicalize()
		}
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := doc.Write(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sweep: wrote %s (%d jobs, %d aggregates, schema %s)\n",
			*out, len(doc.Jobs), len(doc.Aggregates), expt.Schema)
	}

	if wantTelem {
		if err := writeTelemetry(pool, *profFolded, *profPprof, *metricsOut, *seriesCSV); err != nil {
			log.Fatal(err)
		}
	}

	if err := stopProf(); err != nil {
		log.Fatal(err)
	}
	shared.Live.Finish(live)
	if failed {
		os.Exit(1)
	}
}

// telemetrySnaps collects the completed jobs' telemetry snapshots keyed
// by job hash. Jobs run without telemetry (e.g. served from an older
// manifest) are skipped.
func telemetrySnaps(pool expt.Executor) []telemetry.Keyed {
	var out []telemetry.Keyed
	for _, c := range pool.Results() {
		if c.Result.Telem != nil {
			out = append(out, telemetry.Keyed{Key: c.Key, Snap: c.Result.Telem})
		}
	}
	return out
}

// writeTelemetry emits the requested merged exports. Merge sorts by job
// key, so every file is byte-identical at any -workers count.
func writeTelemetry(pool expt.Executor, folded, pprofOut, metricsOut, seriesCSV string) error {
	snaps := telemetrySnaps(pool)
	if len(snaps) == 0 {
		fmt.Fprintln(os.Stderr, "sweep: no telemetry recorded (all jobs served from a pre-telemetry manifest?)")
	}
	merged := telemetry.Merge(snaps)
	if merged.TraceDropped > 0 {
		fmt.Fprintf(os.Stderr, "sweep: trace ring overflowed: %d event(s) dropped across the campaign (raise -trace-events)\n",
			merged.TraceDropped)
	}
	write := func(path string, fn func(*os.File) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("sweep: wrote %s\n", path)
		return nil
	}
	if err := write(folded, func(f *os.File) error { return merged.WriteFolded(f) }); err != nil {
		return err
	}
	if err := write(pprofOut, func(f *os.File) error { return merged.WritePprof(f) }); err != nil {
		return err
	}
	if err := write(metricsOut, func(f *os.File) error { return merged.WriteOpenMetrics(f, true) }); err != nil {
		return err
	}
	return write(seriesCSV, func(f *os.File) error { return telemetry.WriteSeriesCSV(f, snaps) })
}
