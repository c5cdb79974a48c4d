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
// The telemetry flags, shared with cmd/sweep, arm the cycle profiler and
// metrics registry (internal/telemetry) for the run: -prof-folded writes
// folded flame-graph stacks, -prof-pprof a gzipped pprof proto,
// -metrics-out the final metric values as OpenMetrics text, and
// -series-csv the sampled time series. The profile is
// conservation-checked: every simulated cycle on every core is attributed
// exactly once.
//
// The run is one expt.Job executed by expt.RunJob, the path every sweep,
// chaos and fleet job takes, so it computes what a campaign cell with the
// same workload, condition and configuration computes.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/expt"
	"repro/internal/expt/cliflags"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/revoke"
	"repro/internal/telemetry"
	"repro/internal/trace"
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

// writeTrace exports the run's trace ring: CSV when path ends in .csv,
// and otherwise the one-job canonical timeline as Chrome JSON.
func writeTrace(r *expt.JobResult, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".csv") {
		err = trace.WriteCSV(f, r.Telem.Trace)
	} else {
		err = trace.WriteTimeline(f, expt.TimelineJobs([]expt.Completed{{Result: r}}, nil), true)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// pick resolves a workload name to its job reference and configuration.
func pick(name string) (expt.WorkloadRef, harness.Config, error) {
	switch strings.ToLower(name) {
	case "pgbench":
		return expt.PgbenchWorkload(4000), harness.PgbenchConfig(), nil
	case "qps", "grpc-qps":
		return expt.QPSWorkload(1_000_000_000, 100_000_000), harness.QPSConfig(), nil
	}
	ps := spec.ByName(name)
	if len(ps) == 0 {
		return expt.WorkloadRef{}, harness.Config{}, fmt.Errorf("unknown workload %q", name)
	}
	return expt.SpecWorkload(ps[0].Name()), harness.SpecConfig(), nil
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
	tf := cliflags.RegisterTelemetry()
	flag.Parse()
	cliflags.ExitOnArgs(flag.CommandLine, 0)

	ref, cfg, err := pick(*wl)
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
	// The trace ring rides the telemetry snapshot, so -trace arms both.
	var telem *telemetry.Options
	if *traceOut != "" || tf.Wanted() {
		telem = &telemetry.Options{SampleEvery: tf.SampleEvery}
		if *traceOut != "" {
			telem.TraceEvents = *traceEvents
		}
	}

	r, err := expt.RunJob(expt.Job{Workload: ref, Cond: cond, Cfg: cfg}, telem)
	if err != nil {
		log.Fatal(err)
	}
	if *traceOut != "" {
		if err := writeTrace(r, *traceOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace      %d events → %s (%d dropped by ring wrap)\n",
			len(r.Telem.Trace), *traceOut, r.Telem.TraceDropped)
	}
	if tf.Wanted() {
		if err := tf.Write("cornucopia", []telemetry.Keyed{{Key: "run", Snap: r.Telem}}); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("workload   %s under %s (scale 1/%d, seed %d)\n", r.Workload, r.Condition, cfg.Scale, cfg.Seed)
	fmt.Printf("wall       %.3f ms   (%d cycles)\n", r.Millis(r.WallCycles), r.WallCycles)
	fmt.Printf("cpu total  %.3f ms   app thread %.3f ms\n", r.Millis(r.CPUCycles), r.Millis(r.AppCPUCycles))
	fmt.Printf("DRAM       %d transactions (app %d, alloc %d, revoker %d, kernel %d)\n",
		r.DRAMTotal, r.DRAMByAgent["app"], r.DRAMByAgent["alloc"], r.DRAMByAgent["revoker"], r.DRAMByAgent["kernel"])
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
		fmt.Printf("  %5s %10s %9s %9s %9s %7s %8s %8s %8s\n",
			"epoch", "start", "stw", "concur", "faults", "nfault", "pages", "resweep", "revoked")
		for _, e := range r.Epochs {
			fmt.Printf("  %5d %10.3f %9.4f %9.4f %9.4f %7d %8d %8d %8d\n",
				e.Epoch, float64(e.StartCycle)/hz, float64(e.STWCycles)/hz,
				float64(e.ConcurrentCycles)/hz, float64(e.FaultCycles)/hz,
				e.FaultCount, e.PagesVisited, e.PagesResweptSTW, e.CapsRevoked)
		}
	}
	if lat := r.Lat(); lat.N() > 0 {
		hz := r.HzGHz * 1e6
		fmt.Printf("latency    n=%d p50=%.3f p90=%.3f p99=%.3f p99.9=%.3f ms\n",
			lat.N(), lat.Percentile(50)/hz, lat.Percentile(90)/hz,
			lat.Percentile(99)/hz, lat.Percentile(99.9)/hz)
	}
}
