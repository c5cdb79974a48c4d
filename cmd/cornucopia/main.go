// Command cornucopia runs one workload under one temporal-safety condition
// and prints every measured quantity: the general-purpose entry point for
// exploring the simulator.
//
// Usage:
//
//	cornucopia [-workload NAME] [-strategy NAME] [-scale N] [-seed N] [-workers N]
//	           [-trace FILE] [-trace-events N]
//	           [-prof-folded FILE] [-prof-pprof FILE] [-metrics-out FILE]
//	           [-series-csv FILE] [-sample-every N]
//
// Workloads: any SPEC surrogate name (astar, bzip2, gobmk, hmmer,
// libquantum, omnetpp, sjeng, xalancbmk), pgbench, or qps. Strategies:
// baseline, paintsync, cherivoke, cornucopia, reloaded.
//
// -trace runs the workload with the structured tracer enabled and writes
// the event stream to FILE: CSV when FILE ends in .csv, and otherwise a
// one-job canonical timeline in Chrome trace_event JSON (open in Perfetto
// or chrome://tracing) — the same writer and layout as the sweep/chaos
// campaign timelines.
//
// The telemetry flags arm the cycle profiler and metrics registry
// (internal/telemetry) for the run: -prof-folded writes folded
// flame-graph stacks, -prof-pprof a gzipped pprof proto, -metrics-out
// the final metric values as OpenMetrics text, and -series-csv the
// sampled time series. The profile is conservation-checked: every
// simulated cycle on every core is attributed exactly once.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/revoke"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/workload/pgbench"
	"repro/internal/workload/qps"
	"repro/internal/workload/spec"
)

func condition(name string, workers int) (harness.Condition, error) {
	if strings.EqualFold(strings.TrimSpace(name), "baseline") {
		return harness.Baseline(), nil
	}
	s, err := revoke.ParseStrategy(name)
	if err != nil {
		return harness.Condition{}, err
	}
	cond := harness.Condition{Name: s.String(), Shimmed: true, Strategy: s, RevokerCores: []int{2}}
	// Only the concurrent sweepers parallelize; Paint+sync never sweeps and
	// CHERIvoke sweeps under the STW pause.
	if s != revoke.PaintSync && s != revoke.CHERIvoke {
		cond.Workers = workers
	}
	return cond, nil
}

// writeTrace exports the run's trace: CSV when path ends in .csv, and
// otherwise the one-job canonical timeline as Chrome JSON.
func writeTrace(r *harness.Result, seed int64, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".csv") {
		err = r.Trace.WriteCSV(f)
	} else {
		err = trace.WriteTimeline(f, []trace.TimelineJob{{
			Workload: r.Workload, Condition: r.Condition, Seed: seed,
			WallCycles: r.WallCycles, HzGHz: r.HzGHz,
			Trace: r.Trace.Events(), TraceDropped: r.Trace.Dropped(),
		}}, true)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeTelemetry snapshots the recorder, verifies cycle conservation,
// and writes the requested exports.
func writeTelemetry(tl *telemetry.Telemetry, folded, pprofOut, metricsOut, seriesCSV string) error {
	snap := tl.Snapshot()
	if err := snap.CheckConservation(); err != nil {
		return err
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
		fmt.Printf("telemetry  wrote %s\n", path)
		return nil
	}
	if err := write(folded, func(f *os.File) error { return snap.WriteFolded(f) }); err != nil {
		return err
	}
	if err := write(pprofOut, func(f *os.File) error { return snap.WritePprof(f) }); err != nil {
		return err
	}
	if err := write(metricsOut, func(f *os.File) error { return snap.WriteOpenMetrics(f, true) }); err != nil {
		return err
	}
	return write(seriesCSV, func(f *os.File) error {
		return telemetry.WriteSeriesCSV(f, []telemetry.Keyed{{Key: "run", Snap: snap}})
	})
}

func pick(name string, cfg *harness.Config) (workload.Workload, error) {
	switch strings.ToLower(name) {
	case "pgbench":
		*cfg = harness.PgbenchConfig()
		return pgbench.New(4000), nil
	case "qps", "grpc-qps":
		*cfg = harness.QPSConfig()
		return qps.New(1_000_000_000, 100_000_000), nil
	}
	ps := spec.ByName(name)
	if len(ps) == 0 {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return ps[0], nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cornucopia: ")
	wl := flag.String("workload", "xalancbmk", "workload name")
	strat := flag.String("strategy", "reloaded", "temporal-safety strategy")
	scale := flag.Uint64("scale", 0, "override footprint divisor (0 = per-workload default)")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "background revoker threads (§7.1)")
	timeline := flag.Bool("timeline", false, "print a per-epoch timeline")
	traceOut := flag.String("trace", "", "write a structured event trace to this file (CSV if it ends in .csv, else Chrome JSON)")
	traceEvents := flag.Int("trace-events", 1<<19, "trace ring capacity (most recent events kept)")
	profFolded := flag.String("prof-folded", "", "write the cycle profile as folded flame-graph stacks to this file")
	profPprof := flag.String("prof-pprof", "", "write the cycle profile as a gzipped pprof proto to this file")
	metricsOut := flag.String("metrics-out", "", "write the final metrics in OpenMetrics text format to this file")
	seriesCSV := flag.String("series-csv", "", "write the sampled metrics time series as CSV to this file")
	sampleEvery := flag.Uint64("sample-every", telemetry.DefaultSampleEvery, "time-series sampling interval, simulated cycles")
	flag.Parse()

	cfg := harness.SpecConfig()
	w, err := pick(*wl, &cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *scale != 0 {
		cfg.Scale = *scale
	}
	cfg.Seed = *seed
	cond, err := condition(*strat, *workers)
	if err != nil {
		log.Fatal(err)
	}
	if *traceOut != "" {
		cfg.Trace = trace.New(*traceEvents)
	}
	wantTelem := *profFolded != "" || *profPprof != "" || *metricsOut != "" || *seriesCSV != ""
	if wantTelem {
		cfg.Telem = telemetry.New(telemetry.Options{SampleEvery: *sampleEvery})
	}

	r, err := harness.Run(w, cond, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *traceOut != "" {
		if err := writeTrace(r, cfg.Seed, *traceOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace      %d events → %s (%d dropped by ring wrap)\n",
			r.Trace.Len(), *traceOut, r.Trace.Dropped())
	}
	if wantTelem {
		if err := writeTelemetry(cfg.Telem, *profFolded, *profPprof, *metricsOut, *seriesCSV); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("workload   %s under %s (scale 1/%d, seed %d)\n", r.Workload, r.Condition, cfg.Scale, cfg.Seed)
	fmt.Printf("wall       %.3f ms   (%d cycles)\n", r.Millis(r.WallCycles), r.WallCycles)
	fmt.Printf("cpu total  %.3f ms   app thread %.3f ms\n", r.Millis(r.CPUCycles), r.Millis(r.AppCPUCycles))
	fmt.Printf("DRAM       %d transactions (app %d, alloc %d, revoker %d, kernel %d)\n",
		r.DRAMTotal, r.DRAMByAgent[0], r.DRAMByAgent[1], r.DRAMByAgent[2], r.DRAMByAgent[3])
	fmt.Printf("peak RSS   %d pages (%.1f MiB)\n", r.PeakRSSPages, float64(r.PeakRSSPages)*4096/(1<<20))
	fmt.Printf("heap       allocs %d frees %d peak live %.2f MiB\n",
		r.Heap.Allocs, r.Heap.Frees, float64(r.Heap.PeakLiveBytes)/(1<<20))
	if cond.Shimmed {
		fmt.Printf("quarantine total %.2f MiB, peak %.2f MiB, triggers %d, blocks %d (%.3f ms)\n",
			float64(r.Quar.TotalQuarantined)/(1<<20), float64(r.Quar.PeakQuarantinedBytes)/(1<<20),
			r.Quar.Triggers, r.Quar.Blocks, r.Millis(r.Quar.BlockCycles))
		fmt.Printf("mem events cap loads %d, cap stores %d, gen faults %d (%.3f ms), TLB refills %d\n",
			r.Proc.CapLoads, r.Proc.CapStores, r.Proc.GenFaults, r.Millis(r.Proc.GenFaultCycles), r.Proc.TLBRefills)
		fmt.Printf("epochs     %d\n", len(r.Epochs))
		if len(r.Epochs) > 0 {
			var stw, conc, faults metrics.Samples
			var visited, revoked uint64
			for _, e := range r.Epochs {
				stw.AddU(e.STWCycles)
				conc.AddU(e.ConcurrentCycles)
				faults.AddU(e.FaultCycles)
				visited += e.CapsVisited
				revoked += e.CapsRevoked
			}
			hz := r.HzGHz * 1e6
			fmt.Printf("  stop-the-world  med %.4f ms  max %.4f ms\n", stw.Median()/hz, stw.Max()/hz)
			fmt.Printf("  concurrent      med %.4f ms  max %.4f ms\n", conc.Median()/hz, conc.Max()/hz)
			fmt.Printf("  faults/epoch    med %.4f ms  max %.4f ms\n", faults.Median()/hz, faults.Max()/hz)
			fmt.Printf("  caps inspected  %d, revoked %d\n", visited, revoked)
		}
	}
	if *timeline && len(r.Epochs) > 0 {
		hz := r.HzGHz * 1e6
		fmt.Println("\nepoch timeline (ms):")
		fmt.Printf("  %5s %10s %9s %9s %9s %7s %8s %8s\n",
			"epoch", "start", "stw", "concur", "faults", "nfault", "pages", "revoked")
		for _, e := range r.Epochs {
			fmt.Printf("  %5d %10.3f %9.4f %9.4f %9.4f %7d %8d %8d\n",
				e.Epoch, float64(e.StartCycle)/hz, float64(e.STWCycles)/hz,
				float64(e.ConcurrentCycles)/hz, float64(e.FaultCycles)/hz,
				e.FaultCount, e.PagesVisited, e.CapsRevoked)
		}
	}
	if r.Lat.N() > 0 {
		hz := r.HzGHz * 1e6
		fmt.Printf("latency    n=%d p50=%.3f p90=%.3f p99=%.3f p99.9=%.3f ms\n",
			r.Lat.N(), r.Lat.Percentile(50)/hz, r.Lat.Percentile(90)/hz,
			r.Lat.Percentile(99)/hz, r.Lat.Percentile(99.9)/hz)
	}
}
