// Command worker is the execution half of a distributed campaign: it
// connects to a cmd/sweep or cmd/chaos coordinator (-exec=net), says
// hello, and serves leases — each lease is one deterministic (workload,
// condition, seed) job, run through the exact internal/expt.RunJob path a
// local pool uses, under the telemetry configuration the coordinator
// dictates. Results (or failures, classified like local ones) are
// reported back with the worker-side host cost; a held lease is renewed
// by heartbeat until its result is delivered, so a killed worker's jobs
// are reclaimed and re-issued elsewhere.
//
// Usage:
//
//	worker -connect HOST:PORT [-name LABEL] [-parallel N] [-max-jobs N]
//	       [-hello-timeout D] [-reconnect-timeout D] [-cache FILE]
//	       [-crash-after-lease N]
//	       [-http ADDR] [-http-linger D]
//	       [-netfault CLASSES] [-netfault-seed N] [-netfault-rate P]
//	       [-netfault-max N] [-netfault-delay D]
//
// -http serves this worker's own introspection endpoints (job outcomes on
// /jobs and /events, merged job telemetry and a single-worker fleet view
// on /metrics and /fleet) while it runs — the same flags and server as
// the coordinator's. The fleet view counts the coordinator's way:
// accepted results are jobs, and their simulated cycles are the jobs'
// wall cycles.
//
// The worker exits 0 when the coordinator drains the campaign (or the
// coordinator stays unreachable past -reconnect-timeout after the worker
// joined — the coordinator exits as soon as its documents are written),
// and 1 on a protocol refusal or an unreachable coordinator.
//
// -crash-after-lease N is fault injection for the reclaim path: the
// worker dies (exit 2) immediately upon taking its Nth lease, without
// running or reporting it — scripts/fleet_smoke.sh uses it to prove a
// campaign survives losing a worker mid-lease.
//
// -cache FILE opens a worker-side result cache (an expt manifest,
// validated against the campaign's tool/grid at join): a worker that
// crashes and rejoins replays the keys it already completed instead of
// re-executing them.
//
// -netfault CLASSES arms deterministic worker-side network fault
// injection on every protocol request: a comma-separated subset of
// drop, delay, duplicate, reorder, reset, throttle (see
// internal/dist/netfault). scripts/fleet_smoke.sh runs its chaos pass
// under these faults and asserts the canonical document, journal and
// timeline stay byte-identical to a local run's.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/dist/netfault"
	"repro/internal/expt/cliflags"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("worker: ")
	connect := flag.String("connect", "", "coordinator address (required; host:port from sweep/chaos -exec=net)")
	name := flag.String("name", "", "worker label in coordinator output (default host:pid)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "concurrent leases to hold")
	maxJobs := flag.Int("max-jobs", 0, "exit after reporting this many results (0 = run until drained)")
	helloTimeout := flag.Duration("hello-timeout", 10*time.Second, "how long to retry the opening hello while the coordinator starts")
	reconnectTimeout := flag.Duration("reconnect-timeout", 5*time.Second, "how long to retry a silent coordinator before treating the campaign as over")
	cache := flag.String("cache", "", "worker-side result cache file: replay completed keys after a rejoin instead of re-executing")
	crashAfterLease := flag.Int("crash-after-lease", 0, "fault injection: die on taking the Nth lease, without reporting (0 = off)")
	nfClasses := flag.String("netfault", "", "worker-side network fault classes to inject (comma-separated: drop,delay,duplicate,reorder,reset,throttle; empty = off)")
	nfSeed := flag.Int64("netfault-seed", 1, "seed for the deterministic network fault decision stream")
	nfRate := flag.Float64("netfault-rate", 0, "per-opportunity network fault probability (0 = netfault default)")
	nfMax := flag.Uint64("netfault-max", 0, "cap injections per fault class (0 = unbounded)")
	nfDelay := flag.Duration("netfault-delay", 0, "injected network delay/throttle pause (0 = netfault default)")
	lf := cliflags.RegisterLive()
	flag.Parse()

	if *connect == "" {
		log.Fatal("-connect is required (start a coordinator with sweep/chaos -exec=net)")
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	var faults *netfault.Spec
	if *nfClasses != "" {
		faults = &netfault.Spec{
			Seed:        *nfSeed,
			Classes:     strings.Split(*nfClasses, ","),
			Rate:        *nfRate,
			MaxPerClass: *nfMax,
			Delay:       *nfDelay,
		}
	}
	live, err := lf.Start("worker")
	if err != nil {
		log.Fatal(err)
	}
	w := dist.NewWorker(dist.WorkerConfig{
		Connect:          *connect,
		Name:             *name,
		Parallel:         *parallel,
		MaxJobs:          *maxJobs,
		HelloTimeout:     *helloTimeout,
		ReconnectTimeout: *reconnectTimeout,
		CachePath:        *cache,
		CrashAfterLease:  *crashAfterLease,
		Faults:           faults,
		Logf: func(format string, args ...any) {
			log.Printf(format, args...)
		},
		Observe: live.Observe,
	})
	live.SetMetricsSource(func() *telemetry.Snapshot {
		return telemetry.Merge(w.Snapshots())
	})
	live.SetFleetSource(w.Fleet)
	runErr := w.Run()
	lf.Finish(live)
	if runErr != nil {
		if runErr == dist.ErrCrashed {
			log.Print(runErr)
			os.Exit(2)
		}
		log.Fatal(runErr)
	}
}
