// Package cliflags centralizes the experiment-runner flag plumbing that
// cmd/sweep and cmd/chaos share: the pool sizing flags (-workers,
// -timeout, -retries, -retry-backoff), manifest resume (-resume,
// -compact), per-job progress lines (-progress), the live introspection
// server (-http, -http-linger), the execution backend (-exec, -listen,
// -addr-file, -heartbeat), and the observability plane (-journal,
// -timeline, -timeline-canonical, -trace-events). Both commands register
// the same flags with the same defaults and get the same progress
// formatting, so the tools stay drop-in consistent. LiveFlags is the
// live server's flag set on its own, which cmd/worker registers too;
// TelemetryFlags is the telemetry export flag set, which cmd/sweep and
// cmd/cornucopia register; and CheckArgs is every command's guard against
// a stray positional argument.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/dist/netfault"
	"repro/internal/expt"
	"repro/internal/journal"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Flags holds the shared experiment-runner flag values after Parse.
type Flags struct {
	Workers int
	Timeout time.Duration
	Retries int
	// RetryBackoff is the first retry's delay (expt.Backoff's base,
	// doubling per attempt); 0 retries immediately.
	RetryBackoff time.Duration
	Resume       string
	// Compact rewrites the -resume manifest on open, dropping superseded
	// duplicate entries for the same key.
	Compact  bool
	Progress bool
	// Exec selects the execution backend: "local" runs jobs on this
	// process's pool; "net" starts internal/dist's coordinator and leases
	// jobs to cmd/worker processes.
	Exec string
	// Listen is the coordinator bind address under -exec=net (":0" for
	// ephemeral); AddrFile, when non-empty, receives the bound address —
	// scripts launching workers against an ephemeral port read it back.
	Listen   string
	AddrFile string
	// Heartbeat is the lease-renewal interval advertised to workers; a
	// worker silent for several intervals has its leases reclaimed.
	Heartbeat time.Duration
	// RetryBackoffMax caps the retry delay (0 = uncapped) and
	// RetryJitter adds up to that fraction of deterministic seed-keyed
	// jitter to it.
	RetryBackoffMax time.Duration
	RetryJitter     float64
	// NetFault arms coordinator-side network fault injection under
	// -exec=net: a comma-separated class list (drop, delay, partition —
	// the inbound classes; worker-side classes are armed on cmd/worker).
	// Empty = off.
	NetFault              string
	NetFaultSeed          int64
	NetFaultRate          float64
	NetFaultMax           uint64
	NetFaultDelay         time.Duration
	NetFaultPartitionFrac float64
	// BreakerFailures trips a worker's circuit breaker after that many
	// consecutive failures/reclaims (0 = off); BreakerCooldown is the
	// quarantine before a probe lease.
	BreakerFailures int
	BreakerCooldown time.Duration
	// EvictAfter folds a silent lease-free worker out of the live fleet
	// view (0 = default of 60 heartbeats; negative disables).
	EvictAfter time.Duration
	// LocalFallback degrades the coordinator to local execution when the
	// fleet has been silent this long with jobs queued (0 = off).
	LocalFallback time.Duration
	// Live holds the live introspection server's flags (-http,
	// -http-linger).
	Live *LiveFlags
	// Journal appends the campaign journal (cornucopia-journal/v1 JSONL:
	// job lease/start/retry/result, worker join/evict, breaker trips,
	// netfault injections, recovery actions) to this file when non-empty.
	Journal string
	// Timeline writes a merged Chrome/Perfetto timeline (chrome://tracing
	// JSON) of the campaign to this file when non-empty; under -exec=net
	// each worker appears as its own named process track.
	Timeline string
	// TimelineCanonical strips host metadata from -timeline output: one
	// deterministic "campaign" track ordered by job key, byte-identical
	// between a local pool run and a distributed run of the same grid.
	TimelineCanonical bool
	// TraceEvents arms the per-job simulated-cycle tracer with a ring of
	// this many events (0 = off); the ring rides each job's telemetry
	// snapshot into manifests, dist results, and -timeline tracks.
	TraceEvents int
	// CPUProfile/MemProfile, when non-empty, write host-side pprof
	// profiles — the complement of the simulated-cycle profiler
	// (internal/telemetry), which attributes virtual time, not host time.
	CPUProfile string
	MemProfile string
}

// Register installs the shared flags on the process flag set with the
// canonical defaults. Call before flag.Parse.
func Register() *Flags {
	f := &Flags{}
	flag.IntVar(&f.Workers, "workers", runtime.NumCPU(), "parallel jobs (grid shards across host cores)")
	flag.DurationVar(&f.Timeout, "timeout", 10*time.Minute, "per-job attempt timeout (0 = unbounded)")
	flag.IntVar(&f.Retries, "retries", 1, "extra attempts for a failed job")
	flag.DurationVar(&f.RetryBackoff, "retry-backoff", 0, "delay a failed job's first retry by this, doubling per attempt (0 = retry immediately)")
	flag.StringVar(&f.Resume, "resume", "", "manifest file: record completed jobs and resume from them")
	flag.BoolVar(&f.Compact, "compact", false, "compact the -resume manifest on open, dropping superseded duplicate entries")
	flag.BoolVar(&f.Progress, "progress", false, "print per-job progress lines")
	flag.StringVar(&f.Exec, "exec", "local", "execution backend: local (in-process pool) or net (lease jobs to cmd/worker processes)")
	flag.StringVar(&f.Listen, "listen", "127.0.0.1:9977", "coordinator bind address under -exec=net (\":0\" = ephemeral)")
	flag.StringVar(&f.AddrFile, "addr-file", "", "write the coordinator's bound address to this file (for scripts using -listen :0)")
	flag.DurationVar(&f.Heartbeat, "heartbeat", time.Second, "worker lease-renewal interval under -exec=net")
	flag.DurationVar(&f.RetryBackoffMax, "retry-backoff-max", 0, "cap the retry backoff at this delay (0 = uncapped)")
	flag.Float64Var(&f.RetryJitter, "retry-jitter", 0, "add up to this fraction of deterministic jitter to retry backoff (0..1)")
	flag.StringVar(&f.NetFault, "netfault", "", "coordinator-side network fault classes to inject under -exec=net (comma-separated: drop,delay,partition; empty = off)")
	flag.Int64Var(&f.NetFaultSeed, "netfault-seed", 1, "seed for the deterministic network fault decision stream")
	flag.Float64Var(&f.NetFaultRate, "netfault-rate", 0, "per-opportunity network fault probability (0 = netfault default)")
	flag.Uint64Var(&f.NetFaultMax, "netfault-max", 0, "cap injections per fault class (0 = unbounded; bounds partitions so campaigns heal)")
	flag.DurationVar(&f.NetFaultDelay, "netfault-delay", 0, "injected network delay/throttle pause (0 = netfault default)")
	flag.Float64Var(&f.NetFaultPartitionFrac, "netfault-partition-frac", 0, "fraction of workers in the injected partition (0 = netfault default)")
	flag.IntVar(&f.BreakerFailures, "breaker-failures", 0, "trip a worker's circuit breaker after this many consecutive failures/reclaims (0 = off)")
	flag.DurationVar(&f.BreakerCooldown, "breaker-cooldown", 0, "quarantine a tripped worker this long before its probe lease (0 = 2s)")
	flag.DurationVar(&f.EvictAfter, "evict-after", 0, "evict a silent lease-free worker from the live fleet view after this long (0 = 60 heartbeats; negative = never)")
	flag.DurationVar(&f.LocalFallback, "local-fallback", 0, "run queued jobs locally when the fleet has been silent this long under -exec=net (0 = wait forever)")
	f.Live = RegisterLive()
	flag.StringVar(&f.Journal, "journal", "", "append the campaign journal (cornucopia-journal/v1 JSONL) to this file")
	flag.StringVar(&f.Timeline, "timeline", "", "write a merged Chrome/Perfetto campaign timeline (chrome://tracing JSON) to this file")
	flag.BoolVar(&f.TimelineCanonical, "timeline-canonical", false, "strip host metadata from -timeline: one deterministic campaign track, byte-identical across local and distributed runs")
	flag.IntVar(&f.TraceEvents, "trace-events", 0, "arm the per-job cycle tracer with a ring of this many events (0 = off)")
	flag.StringVar(&f.CPUProfile, "cpuprofile", "", "write a host CPU profile (pprof) to this file")
	flag.StringVar(&f.MemProfile, "memprofile", "", "write a host heap profile (pprof) to this file at exit")
	return f
}

// CheckArgs returns an error naming the first positional argument fs
// holds beyond the max its tool accepts. Flag parsing stops at the first
// word that is not a flag, so without this check every flag after a stray
// word would be dropped silently.
func CheckArgs(fs *flag.FlagSet, max int) error {
	if fs.NArg() <= max {
		return nil
	}
	return fmt.Errorf("unexpected argument %q (flags after it were not parsed)", fs.Arg(max))
}

// ExitOnArgs is CheckArgs for a command's main: it logs the error and
// exits 2, the status of a bad flag.
func ExitOnArgs(fs *flag.FlagSet, max int) {
	if err := CheckArgs(fs, max); err != nil {
		log.Print(err)
		os.Exit(2)
	}
}

// StartProfiles begins host CPU profiling if -cpuprofile was given. The
// returned stop function flushes the CPU profile and, if -memprofile was
// given, writes a post-GC heap profile; call it (once) before exit.
func (f *Flags) StartProfiles() (stop func() error, err error) {
	var cpu *os.File
	if f.CPUProfile != "" {
		cpu, err = os.Create(f.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("cliflags: -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cliflags: -cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("cliflags: -cpuprofile: %w", err)
			}
		}
		if f.MemProfile != "" {
			mf, err := os.Create(f.MemProfile)
			if err != nil {
				return fmt.Errorf("cliflags: -memprofile: %w", err)
			}
			runtime.GC() // materialize reachable-heap truth before the snapshot
			if err := pprof.WriteHeapProfile(mf); err != nil {
				mf.Close()
				return fmt.Errorf("cliflags: -memprofile: %w", err)
			}
			return mf.Close()
		}
		return nil
	}, nil
}

// Manifest opens the -resume manifest for the given tool and grid
// signature, or returns nil when resume is off. With -compact, the file
// is rewritten in place to drop superseded duplicate entries before use.
// The caller owns Close.
func (f *Flags) Manifest(tool, grid string) (*expt.Manifest, error) {
	if f.Resume == "" {
		if f.Compact {
			return nil, fmt.Errorf("cliflags: -compact needs -resume to name the manifest")
		}
		return nil, nil
	}
	m, err := expt.OpenManifestFor(f.Resume, expt.ManifestMeta{Tool: tool, Grid: grid})
	if err != nil {
		return nil, err
	}
	if f.Compact {
		dropped, err := m.Compact()
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("cliflags: -compact: %w", err)
		}
		if dropped > 0 {
			fmt.Fprintf(os.Stderr, "%s: compacted %s: dropped %d superseded entr(ies)\n", tool, f.Resume, dropped)
		}
	}
	return m, nil
}

// PoolConfig assembles the pool configuration from the flags: sizing,
// the manifest, and a progress chain feeding the -progress printer and
// the -http live server. The returned Live is nil unless -http was set;
// pass it to f.Live.Finish when the run completes. Callers may further
// adjust the returned config (e.g. set Telemetry) before expt.NewPool.
func (f *Flags) PoolConfig(tool string, manifest *expt.Manifest) (expt.PoolConfig, *telemetry.Live, error) {
	cfg := expt.PoolConfig{
		Workers:  f.Workers,
		Timeout:  f.Timeout,
		Retries:  f.Retries,
		Backoff:  f.Backoff(),
		Manifest: manifest,
	}
	live, err := f.Live.Start(tool)
	if err != nil {
		return cfg, nil, err
	}
	if f.Progress || live != nil {
		printer := f.Progress
		cfg.Progress = func(ev journal.Event) {
			live.Observe(ev)
			if printer {
				fmt.Fprintln(os.Stderr, FormatEvent(ev))
			}
		}
	}
	return cfg, live, nil
}

// Backoff assembles the retry policy from the flags: -retry-backoff
// doubling per attempt, capped at -retry-backoff-max, plus up to
// -retry-jitter of jitter keyed by -netfault-seed.
func (f *Flags) Backoff() expt.Backoff {
	return expt.Backoff{
		Base:   f.RetryBackoff,
		Factor: 2,
		Max:    f.RetryBackoffMax,
		Jitter: f.RetryJitter,
		Seed:   f.NetFaultSeed,
	}
}

// NetFaultSpec assembles the coordinator-side fault injection spec from
// the flags, or nil when -netfault was not given.
func (f *Flags) NetFaultSpec() *netfault.Spec {
	if f.NetFault == "" {
		return nil
	}
	return &netfault.Spec{
		Seed:          f.NetFaultSeed,
		Classes:       strings.Split(f.NetFault, ","),
		Rate:          f.NetFaultRate,
		MaxPerClass:   f.NetFaultMax,
		Delay:         f.NetFaultDelay,
		PartitionFrac: f.NetFaultPartitionFrac,
	}
}

// AtomicWriteFile writes data to path so that no concurrent reader ever
// observes a torn or partial file: the bytes land in a same-directory
// temp file first, then replace path in one rename. Scripts polling
// -addr-file depend on this.
func AtomicWriteFile(path string, data []byte, mode os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(mode); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// NewExecutor builds the execution backend -exec selected: a local pool,
// or a listening dist coordinator that leases the grid to cmd/worker
// processes. The returned closer must be called after every Get has
// returned — for a coordinator it drains the worker fleet (telling each
// worker to exit) and shuts the protocol server down; for a local pool it
// is a no-op. The executor's fleet view is wired onto live (/fleet and
// the <tool>_fleet_* metric families, plus <tool>_dist_* for a
// coordinator); a local pool serves a single-worker fleet.
//
// With -journal, both backends emit the campaign journal through the one
// pool seam (expt.PoolConfig.Journal); the closer flushes and closes it,
// surfacing any write error the campaign would otherwise swallow.
func (f *Flags) NewExecutor(tool, grid string, pcfg expt.PoolConfig, live *telemetry.Live) (expt.Executor, func() error, error) {
	var jnl *journal.Writer
	if f.Journal != "" {
		var err error
		if jnl, err = journal.Create(f.Journal, tool, grid); err != nil {
			return nil, nil, err
		}
		pcfg.Journal = jnl
	}
	closeJournal := func() error {
		if jnl == nil {
			return nil
		}
		werr := jnl.Err()
		cerr := jnl.Close()
		if werr != nil {
			return fmt.Errorf("cliflags: -journal %s: %w", f.Journal, werr)
		}
		if cerr != nil {
			return fmt.Errorf("cliflags: -journal %s: %w", f.Journal, cerr)
		}
		return nil
	}
	switch f.Exec {
	case "", "local":
		p := expt.NewPool(pcfg)
		live.SetFleetSource(func() telemetry.FleetStats { return LocalFleet(p) })
		return p, closeJournal, nil
	case "net":
		c := dist.NewCoordinator(dist.Config{
			Tool:            tool,
			Grid:            grid,
			Pool:            pcfg,
			LeaseTimeout:    f.Timeout,
			Heartbeat:       f.Heartbeat,
			Faults:          f.NetFaultSpec(),
			BreakerFailures: f.BreakerFailures,
			BreakerCooldown: f.BreakerCooldown,
			EvictAfter:      f.EvictAfter,
			LocalFallback:   f.LocalFallback,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, tool+": "+format+"\n", args...)
			},
		})
		addr, err := c.Start(f.Listen)
		if err != nil {
			if jnl != nil {
				jnl.Close()
			}
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: coordinator on %s (attach workers: worker -connect %s)\n", tool, addr, addr)
		if f.NetFault != "" {
			fmt.Fprintf(os.Stderr, "%s: coordinator-side netfault armed: classes=%s seed=%d\n", tool, f.NetFault, f.NetFaultSeed)
		}
		if f.AddrFile != "" {
			// Atomic write-then-rename so a script polling the path never
			// reads a torn address.
			if err := AtomicWriteFile(f.AddrFile, []byte(addr+"\n"), 0o644); err != nil {
				c.Close()
				if jnl != nil {
					jnl.Close()
				}
				return nil, nil, fmt.Errorf("cliflags: -addr-file: %w", err)
			}
		}
		live.SetFleetSource(c.Fleet)
		closer := func() error {
			c.Drain() // returns once every live worker has been told
			if f.AddrFile != "" {
				_ = os.Remove(f.AddrFile)
			}
			err := c.Close()
			if jerr := closeJournal(); err == nil {
				err = jerr
			}
			return err
		}
		return c, closer, nil
	}
	if jnl != nil {
		jnl.Close()
	}
	return nil, nil, fmt.Errorf("cliflags: unknown -exec backend %q (want local or net)", f.Exec)
}

// LocalFleet summarizes a local executor as a single-worker fleet, so
// /fleet and the fleet_* metric families answer identically-shaped data
// whether or not the campaign is distributed.
func LocalFleet(ex expt.Executor) telemetry.FleetStats {
	w := telemetry.FleetWorker{ID: "local", Name: "local pool"}
	for _, c := range ex.Results() {
		if c.Result != nil {
			w.AddJob(float64(c.Host)/float64(time.Millisecond), c.Cached, c.Result.WallCycles, c.Result.Telem)
		}
	}
	return telemetry.FleetStats{Workers: []telemetry.FleetWorker{w}}.Totaled()
}

// WriteTimeline writes the merged Chrome/Perfetto campaign timeline if
// -timeline was given. Call it after the closer has run (every result
// in, fleet drained); a no-op when the flag is unset.
func (f *Flags) WriteTimeline(tool string, ex expt.Executor) error {
	if f.Timeline == "" {
		return nil
	}
	// The dist coordinator can name which worker ran each key; a local
	// pool's jobs all land on the "local" track.
	var workers map[string]string
	if wm, ok := ex.(interface{ JobWorkers() map[string]string }); ok {
		workers = wm.JobWorkers()
	}
	out, err := os.Create(f.Timeline)
	if err != nil {
		return fmt.Errorf("cliflags: -timeline: %w", err)
	}
	if err := trace.WriteTimeline(out, expt.TimelineJobs(ex.Results(), workers), f.TimelineCanonical); err != nil {
		out.Close()
		return fmt.Errorf("cliflags: -timeline: %w", err)
	}
	if err := out.Close(); err != nil {
		return fmt.Errorf("cliflags: -timeline: %w", err)
	}
	fmt.Printf("%s: wrote %s\n", tool, f.Timeline)
	return nil
}

// TelemetryFlags is the telemetry export flag set, shared by cmd/sweep
// and cmd/cornucopia: -prof-folded, -prof-pprof, -metrics-out and
// -series-csv name the export files, and -sample-every sets the time
// series' sampling interval.
type TelemetryFlags struct {
	Folded, Pprof, Metrics, SeriesCSV string
	SampleEvery                       uint64
}

// RegisterTelemetry installs the telemetry export flags on the process
// flag set. Call before flag.Parse.
func RegisterTelemetry() *TelemetryFlags {
	tf := &TelemetryFlags{}
	flag.StringVar(&tf.Folded, "prof-folded", "", "write the cycle profile (merged over jobs) as folded flame-graph stacks to this file")
	flag.StringVar(&tf.Pprof, "prof-pprof", "", "write the cycle profile (merged over jobs) as a gzipped pprof proto to this file")
	flag.StringVar(&tf.Metrics, "metrics-out", "", "write the final metrics (merged over jobs) in OpenMetrics text format to this file")
	flag.StringVar(&tf.SeriesCSV, "series-csv", "", "write every job's sampled metrics time series as CSV to this file")
	flag.Uint64Var(&tf.SampleEvery, "sample-every", telemetry.DefaultSampleEvery, "time-series sampling interval, simulated cycles")
	return tf
}

// Wanted reports whether any export file was named.
func (tf *TelemetryFlags) Wanted() bool {
	return tf.Folded != "" || tf.Pprof != "" || tf.Metrics != "" || tf.SeriesCSV != ""
}

// Write merges the jobs' snapshots and writes every requested export,
// printing a "tool: wrote FILE" line for each. Merge sorts by key, so the
// files are byte-identical at any worker count, and one snapshot merges
// to itself.
func (tf *TelemetryFlags) Write(tool string, snaps []telemetry.Keyed) error {
	if len(snaps) == 0 {
		fmt.Fprintf(os.Stderr, "%s: no telemetry recorded (all jobs served from a pre-telemetry manifest?)\n", tool)
	}
	merged := telemetry.Merge(snaps)
	if merged.TraceDropped > 0 {
		fmt.Fprintf(os.Stderr, "%s: trace ring overflowed: %d event(s) dropped (raise -trace-events)\n",
			tool, merged.TraceDropped)
	}
	for _, e := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{tf.Folded, merged.WriteFolded},
		{tf.Pprof, merged.WritePprof},
		{tf.Metrics, func(w io.Writer) error { return merged.WriteOpenMetrics(w, true) }},
		{tf.SeriesCSV, func(w io.Writer) error { return telemetry.WriteSeriesCSV(w, snaps) }},
	} {
		if e.path == "" {
			continue
		}
		f, err := os.Create(e.path)
		if err != nil {
			return err
		}
		if err := e.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("%s: wrote %s\n", tool, e.path)
	}
	return nil
}

// LiveFlags is the live introspection server's flag set, shared by
// cmd/sweep, cmd/chaos and cmd/worker: -http binds a telemetry.Live
// server, and -http-linger keeps it up after the run so late scrapers
// (and CI smoke tests) can still reach it.
type LiveFlags struct {
	Addr   string
	Linger time.Duration
}

// RegisterLive installs -http and -http-linger on the process flag set.
// Call before flag.Parse.
func RegisterLive() *LiveFlags {
	lf := &LiveFlags{}
	flag.StringVar(&lf.Addr, "http", "", "serve live introspection (/metrics, /jobs, /events) on this address (\":0\" = ephemeral)")
	flag.DurationVar(&lf.Linger, "http-linger", 0, "keep the -http server up this long after the run completes")
	return lf
}

// Start binds the live server under -http and prints its address, or
// returns nil without -http (every telemetry.Live method is nil-safe, so
// callers wire sources and Observe unconditionally).
func (lf *LiveFlags) Start(tool string) (*telemetry.Live, error) {
	if lf.Addr == "" {
		return nil, nil
	}
	live := telemetry.NewLive(tool)
	addr, err := live.Start(lf.Addr)
	if err != nil {
		return nil, fmt.Errorf("cliflags: -http %s: %w", lf.Addr, err)
	}
	fmt.Fprintf(os.Stderr, "%s: live introspection on http://%s/\n", tool, addr)
	return live, nil
}

// Finish lingers the live server for -http-linger, then shuts it down.
// Safe with a nil live (no -http).
func (lf *LiveFlags) Finish(live *telemetry.Live) {
	if live == nil {
		return
	}
	if lf.Linger > 0 {
		fmt.Fprintf(os.Stderr, "lingering %s for late scrapes\n", lf.Linger)
		time.Sleep(lf.Linger)
	}
	_ = live.Close()
}

// FormatEvent renders the standard one-line progress format both tools
// print under -progress.
func FormatEvent(ev journal.Event) string {
	status := ev.Status
	if status == "" {
		status = ev.Kind // a manifest-error carries no job status
	}
	line := fmt.Sprintf("[%d/%d] %-6s %s under %s seed=%d (%d attempt(s), %.1fs)",
		ev.Done, ev.Total, status, ev.Workload, ev.Condition, ev.Seed,
		ev.Attempt, ev.HostMS/1e3)
	if ev.Err != "" {
		line += fmt.Sprintf(" [%s]", ev.Err)
	}
	return line
}
