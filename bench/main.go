// Command bench is the repository's benchmark: it runs the simulator's
// workloads end to end, with tracing off, for host time, simulation speed,
// peak memory and set-up time; then, in a separate traced run, splits host
// time across the simulator's layers with an in-process CPU profile, the
// benchmark's own spans and the simulated-cycle telemetry. Every
// iteration's simulated outputs are hashed, and a digest that drifts
// between iterations, or differs from golden.json for seed 1, fails the
// workload. See README.md for the metrics and workloads.
//
// Usage (from the repository root):
//
//	bash bench/run.sh [-workloads a,b] [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
//	bash bench/run.sh -compare PARENT.json CHANGE.json
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics (the end-to-end ones with -trace 0, the
// per-layer ones with -trace 1; prefixed by workload when several ran).
// -compare reads the bounds from BENCHMARK.json in the working directory.
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 3

// minIters is the fewest iterations a measuring loop runs, however long
// they take. A figures iteration can outlast the whole run, and its peak
// RSS varies by up to a quarter between iterations with the order the
// pool happens to run jobs in, so one iteration makes too noisy a median.
const minIters = 2

//go:embed golden.json
var goldenJSON []byte

// golden holds the digests recorded for one seed.
type golden struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func main() {
	var (
		sel     = flag.String("workloads", "", "comma-separated workloads to run (default: all)")
		seed    = flag.Int64("seed", 1, "input seed: feeds harness.Config.Seed and fleet.Seed")
		seconds = flag.Float64("seconds", 12, "measured host seconds per workload; with -trace 1, the first half untraced and the second traced")
		trace   = flag.Int("trace", 1, "1: after the untraced run, do the traced run for the per-layer metrics")
		out     = flag.String("out", "", "directory for results.json and the Chrome traces (default: a new temporary directory)")
		cmp     = flag.Bool("compare", false, "compare two result files, each holding one or more runs: -compare PARENT.json CHANGE.json")
	)
	flag.StringVar(sel, "workload", "", "alias of -workloads")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fatalf("-compare takes two result files")
		}
		worse, err := compare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	defs := workloads
	if *sel != "" {
		defs = nil
		for _, name := range strings.Split(*sel, ",") {
			d, ok := workloadByName(strings.TrimSpace(name))
			if !ok {
				fatalf("unknown workload %q", name)
			}
			defs = append(defs, d)
		}
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	var gold golden
	if err := json.Unmarshal(goldenJSON, &gold); err != nil {
		fatalf("golden.json: %v", err)
	}
	if *out == "" {
		dir, err := os.MkdirTemp("", "bench-")
		if err != nil {
			fatalf("%v", err)
		}
		*out = dir
	}
	fmt.Fprintf(os.Stderr, "bench: results go to %s\n", *out)

	doc := resultDoc{
		Schema: "cornucopia-bench/v1", Host: describeHost(), Seed: *seed,
		Seconds: *seconds, Traced: *trace == 1,
	}
	line := resultLine{Metrics: map[string]lineMetric{}}
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "bench: %s: set-up, then %gs measured\n", d.name, *seconds)
		m := runWorkload(d, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
		m.check(gold, *seed)
		wr := m.result()
		doc.Workloads = append(doc.Workloads, wr)
		m.report(os.Stdout, wr)
		if m.sp != nil {
			if err := writeFile(filepath.Join(*out, d.name+".trace.json"), func(w io.Writer) error {
				return writeChrome(w, m.sp.snapshot(), m.sp.lanes, "bench "+d.name)
			}); err != nil {
				fatalf("%v", err)
			}
		}
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		metrics := make(map[string]lineMetric)
		if *trace == 1 {
			for _, def := range perLayer {
				metrics[def.name] = lineMetric{wr.PerLayer[def.name], def.unit}
			}
		} else {
			for _, def := range endToEnd {
				metrics[def.name] = lineMetric{wr.EndToEnd[def.name].Median, def.unit}
			}
		}
		for name, v := range metrics {
			line.Metrics[metricKey(d.name, name, len(defs) > 1)] = v
		}
	}
	line.Correct = line.Failed == 0
	if err := writeFile(filepath.Join(*out, "results.json"), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}); err != nil {
		fatalf("%v", err)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatalf("result line: %v", err)
	}
	fmt.Println(string(b))
	if !line.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// measured is everything one workload's runs recorded.
type measured struct {
	def                 workloadDef
	setup               []float64 // seconds per set-up
	host, mcps, rss     []float64 // untraced iterations
	tracedHost          []float64
	digests             []string
	attempted, failed   int
	errs                []error
	last                outcome // the last iteration (traced when tracing)
	layers              layerProfile
	sp                  *spans
	iterSpans           []int // traced iteration span ids
	goldenState, errMsg string
}

// runWorkload sets the workload up setupReps times, then measures it for
// d: untraced for the end-to-end metrics or, when traced, for the first
// half of d untraced and the second half with spans, CPU profile and
// telemetry armed.
func runWorkload(def workloadDef, seed int64, d time.Duration, traced bool) *measured {
	m := &measured{def: def}
	var r runner
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t := time.Now()
		r = def.prepare(seed)
		err := r.warmUp()
		m.setup = append(m.setup, time.Since(t).Seconds())
		if err != nil {
			m.errs = append(m.errs, fmt.Errorf("set-up: %w", err))
			return m
		}
	}
	untraced := d
	if traced {
		untraced = d / 2
	}
	m.loop(r, untraced, nil)
	if traced {
		m.sp = newSpans()
		m.loop(r, d-untraced, m.sp)
	}
	return m
}

// loop runs iterations back to back until d has passed, and at least
// minIters. Before each iteration the heap is collected and its free
// memory handed back to the OS, so an iteration neither pays for the
// previous one's garbage nor inherits its resident set, and the peak RSS
// is reset. A traced iteration is profiled on its own, so the work
// between iterations stays out of the layer split.
func (m *measured) loop(r runner, d time.Duration, sp *spans) {
	start := time.Now()
	for i := 0; i < minIters || time.Since(start) < d; i++ {
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			m.errs = append(m.errs, fmt.Errorf("reset peak RSS: %w", err))
			return
		}
		var prof bytes.Buffer
		if sp != nil {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				m.errs = append(m.errs, fmt.Errorf("cpu profile: %w", err))
				return
			}
		}
		id := sp.begin("iteration "+strconv.Itoa(i+1), 0, laneDriver)
		t := time.Now()
		o := r.iterate(sp, id)
		host := time.Since(t).Seconds()
		sp.end(id)
		if sp != nil {
			pprof.StopCPUProfile()
			lp, err := attribute(prof.Bytes())
			if err != nil {
				m.errs = append(m.errs, err)
			}
			m.layers.merge(lp)
			m.iterSpans = append(m.iterSpans, id)
			m.tracedHost = append(m.tracedHost, host)
		} else {
			rss, err := peakRSSMiB()
			if err != nil {
				m.errs = append(m.errs, err)
			}
			m.host = append(m.host, host)
			m.mcps = append(m.mcps, float64(o.sim.CPUCycles)/1e6/host)
			m.rss = append(m.rss, rss)
		}
		m.attempted += o.attempted
		m.failed += o.failed
		if o.err != nil {
			m.errs = append(m.errs, o.err)
		} else {
			m.digests = append(m.digests, o.digest)
		}
		m.last = o
	}
}

// check applies the correctness gate: every iteration, traced or not,
// must produce the same digest, and for the golden seed the recorded one.
// Otherwise every operation of the workload counts as failed.
func (m *measured) check(g golden, seed int64) {
	m.goldenState = "unchecked"
	switch {
	case len(m.errs) > 0:
		m.errMsg = m.errs[0].Error()
	case len(m.digests) == 0:
		m.errMsg = "no iteration completed"
	}
	for _, d := range m.digests {
		if d != m.digests[0] && m.errMsg == "" {
			m.errMsg = "simulated digest drifted between iterations"
		}
	}
	if want, ok := g.Digests[m.def.name]; ok && seed == g.Seed && len(m.digests) > 0 {
		m.goldenState = "match"
		if m.digests[0] != want {
			m.goldenState = "mismatch"
			if m.errMsg == "" {
				m.errMsg = "simulated digest differs from golden.json"
			}
		}
	}
	if m.errMsg != "" {
		m.failed = max(m.attempted, 1)
		m.attempted = max(m.attempted, 1)
	}
}

// hostDesc identifies the machine a result was measured on.
type hostDesc struct {
	NProc int    `json:"nproc"`
	Go    string `json:"go"`
	OS    string `json:"os"`
	Arch  string `json:"arch"`
	CPU   string `json:"cpu,omitempty"`
}

func describeHost() hostDesc {
	h := hostDesc{
		NProc: runtime.NumCPU(), Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// resultDoc is results.json: one invocation's measurements.
type resultDoc struct {
	Schema    string           `json:"schema"`
	Host      hostDesc         `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name       string             `json:"name"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Error      string             `json:"error,omitempty"`
	Digest     string             `json:"digest"`
	Golden     string             `json:"golden"`
	EndToEnd   map[string]summary `json:"end_to_end"`
	FailedFrac float64            `json:"failed_frac"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
}

func (m *measured) result() workloadResult {
	wr := workloadResult{
		Name: m.def.name, Attempted: m.attempted, Failed: m.failed, Error: m.errMsg, Golden: m.goldenState,
		EndToEnd: map[string]summary{
			"host_s":       summarize("s", m.host),
			"sim_mcps":     summarize("Mcycles/s", m.mcps),
			"peak_rss_mib": summarize("MiB", m.rss),
			"setup_s":      summarize("s", m.setup),
		},
	}
	if len(m.digests) > 0 {
		wr.Digest = m.digests[0]
	}
	if m.attempted > 0 {
		wr.FailedFrac = float64(m.failed) / float64(m.attempted)
	}
	if m.sp != nil {
		wr.PerLayer = m.perLayer()
	}
	return wr
}

// perLayer computes the traced run's per-layer metrics. A job is one
// expt.RunJob (figures) or one harness.Run (otherwise); span lanes
// 1..workers hold them.
func (m *measured) perLayer() map[string]float64 {
	out := map[string]float64{}
	for _, l := range layers {
		out[l+".host_share"] = m.layers.share(l)
	}
	iters := float64(len(m.tracedHost))
	c := m.last.sim
	out["kernel.sweep.host_ns_per_cap"] = ratio(float64(m.layers.NS["kernel.sweep"]), float64(c.CapsVisited)*iters)
	out["alloc.host_ns_per_op"] = ratio(float64(m.layers.NS["alloc"]), float64(c.AllocOps)*iters)

	all := m.sp.snapshot()
	var jobMS, waitMS, util, tail []float64
	for _, id := range m.iterSpans {
		it := all[id-1]
		var iv [][2]time.Duration
		workers := 1
		var busy time.Duration
		for _, s := range children(all, id) {
			if s.Lane < 1 || s.Lane >= laneFigureBase {
				continue
			}
			workers = max(workers, s.Lane)
			jobMS = append(jobMS, float64(s.dur())/1e6)
			waitMS = append(waitMS, float64(s.Wait)/1e6)
			busy += s.dur()
			iv = append(iv, [2]time.Duration{s.Start, s.End})
		}
		util = append(util, ratio(float64(busy), float64(workers)*float64(it.dur())))
		tail = append(tail, underCovered(iv, it.Start, it.End, workers).Seconds())
	}
	out["harness.run_s.p50"] = percentile(jobMS, 50) / 1e3
	out["expt.job_ms.p50"] = percentile(jobMS, 50)
	out["expt.job_ms.p90"] = percentile(jobMS, 90)
	out["expt.job_ms.max"] = percentile(jobMS, 100)
	out["expt.queue_wait_ms.p50"] = percentile(waitMS, 50)
	out["expt.queue_wait_ms.p90"] = percentile(waitMS, 90)
	out["expt.util"] = percentile(util, 50)
	out["expt.tail_s"] = percentile(tail, 50)
	out["expt.dedup_ratio"] = m.last.dedup

	out["bus.dram_tx"] = float64(c.DRAMTx)
	out["vm.tlb_refills"] = float64(c.TLBRefills)
	out["kernel.barrier_faults"] = float64(c.BarrierFaults)
	out["alloc.ops"] = float64(c.AllocOps)
	out["quarantine.blocks"] = float64(c.QuarBlocks)
	out["revoke.epochs"] = float64(c.Epochs)
	out["revoke.caps_visited"] = float64(c.CapsVisited)
	out["revoke.revoked_per_visited"] = ratio(float64(c.CapsRevoked), float64(c.CapsVisited))
	out["revoke.stw_max_cycles"] = float64(c.STWMaxCycles)
	out["simcycles.idle_share"] = ratio(float64(c.IdleCycles), float64(c.CoreCycles))
	out["trace.overhead"] = ratio(percentile(m.tracedHost, 50), percentile(m.host, 50)) - 1
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report prints one workload's metrics, each with its unit and n.
func (m *measured) report(w io.Writer, wr workloadResult) {
	fmt.Fprintf(w, "== %s: %s\n", wr.Name, m.def.why)
	fmt.Fprintf(w, "  %-30s %12s %12s %12s %4s  %s\n", "end to end (tracing off)", "median", "p25", "p75", "n", "unit")
	for _, def := range endToEnd {
		fmt.Fprintln(w, fmtRow(def.name, wr.EndToEnd[def.name]))
	}
	fmt.Fprintf(w, "  %-30s %12.6g %12s %12s %4d  share (failed %d)\n", "failed_frac", wr.FailedFrac, "", "", wr.Attempted, wr.Failed)
	fmt.Fprintf(w, "  simulated digest %.16s…, golden.json: %s\n", wr.Digest, wr.Golden)
	if wr.Error != "" {
		fmt.Fprintf(w, "  FAILED: %s\n", wr.Error)
	}
	if wr.PerLayer == nil {
		return
	}
	fmt.Fprintf(w, "  per layer (traced, %d iterations, %d profile samples)\n", len(m.tracedHost), m.layers.Samples)
	sum := 0.0
	for _, def := range perLayer {
		v := wr.PerLayer[def.name]
		if strings.HasSuffix(def.name, ".host_share") {
			sum += v
		}
		fmt.Fprintf(w, "  %-30s %12.6g  %s\n", def.name, v, def.unit)
	}
	fmt.Fprintf(w, "  host shares sum to %.6f\n", sum)
}

// writeFile creates path (and its directory) and fills it with fn.
func writeFile(path string, fn func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = fn(bw)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) accounting.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's peak resident set since the last reset.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
