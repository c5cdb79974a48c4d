// Command chaos runs deterministic fault-injection campaigns against the
// revocation protocol and audits every run with the end-to-end soundness
// oracle (internal/oracle). Each campaign cell is one (strategy, fault
// class, seed) run of the adversarial chaos workload with the named fault
// class armed; a per-strategy control row runs with faults disabled. Every
// run is classified:
//
//	detected  — the oracle flagged at least one invariant violation: the
//	            injected unsoundness was caught.
//	tolerated — faults were injected, the oracle saw a clean machine, and
//	            the revoker's abort-and-retry recovery was recorded.
//	silent    — faults were injected and NEITHER happened. This is the
//	            outcome the campaign exists to rule out.
//	clean     — no injection opportunity fired (or faults were disabled)
//	            and the oracle saw a clean machine.
//
// -strict applies the expected-outcome matrix for Cornucopia Reloaded
// (protocol-subverting classes must be detected; infrastructure faults
// must be tolerated; nothing may be silent; controls must be clean) and
// exits non-zero on any miss.
//
// The campaign report (-out) contains only simulation-derived quantities —
// no host timing — so the same invocation produces a byte-identical report
// at any -workers count.
//
// Usage:
//
//	chaos [-strategies reloaded,cornucopia,... | all] [-classes all|c1,c2,...]
//	      [-seeds N] [-seed BASE] [-rate R] [-max N] [-delay CYCLES] [-ops N]
//	      [-workers N] [-timeout D] [-retries N] [-retry-backoff D]
//	      [-resume FILE] [-compact]
//	      [-exec local|net] [-listen ADDR] [-addr-file FILE] [-heartbeat D]
//	      [-retry-backoff-max D] [-retry-jitter F]
//	      [-netfault CLASSES] [-netfault-seed N] [-netfault-rate P]
//	      [-netfault-max N] [-netfault-delay D] [-netfault-partition-frac F]
//	      [-breaker-failures N] [-breaker-cooldown D]
//	      [-evict-after D] [-local-fallback D]
//	      [-http ADDR] [-http-linger D]
//	      [-journal FILE] [-timeline FILE] [-timeline-canonical]
//	      [-trace-events N]
//	      [-out report.json] [-progress] [-strict] [-list-classes]
//
// -exec=net makes this process the campaign coordinator (internal/dist):
// cmd/worker processes connect to -listen and lease cells over the
// cornucopia-dist/v1 protocol. The report needs no normalization to
// compare against a local run — it already contains no host timing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"repro/internal/expt"
	"repro/internal/expt/cliflags"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/revoke"
	"repro/internal/telemetry"
)

// Schema versions the campaign report document.
const Schema = "cornucopia-chaos/v1"

// controlClass labels the faults-disabled control row.
const controlClass = "none"

// RunOutcome is one campaign cell run, flattened for the report.
type RunOutcome struct {
	Seed       int64  `json:"seed"`
	Injections uint64 `json:"injections"`
	Violations uint64 `json:"violations"`
	Recoveries uint64 `json:"recoveries"`
	Outcome    string `json:"outcome"`
}

// Cell aggregates one (strategy, class) row over all seeds.
type Cell struct {
	Strategy string `json:"strategy"`
	Class    string `json:"class"`
	// Detected/Tolerated/Silent/Clean count run outcomes.
	Detected  int `json:"detected"`
	Tolerated int `json:"tolerated"`
	Silent    int `json:"silent"`
	Clean     int `json:"clean"`
	// Injections/Violations/Recoveries sum over runs.
	Injections uint64 `json:"injections"`
	Violations uint64 `json:"violations"`
	Recoveries uint64 `json:"recoveries"`
	// Verdict summarizes the row: detected-unsound, tolerated, silent,
	// clean, or no-injections.
	Verdict string       `json:"verdict"`
	Runs    []RunOutcome `json:"runs"`
}

// Report is the campaign document written by -out.
type Report struct {
	Schema     string            `json:"schema"`
	Strategies []string          `json:"strategies"`
	Classes    []string          `json:"classes"`
	Seeds      int               `json:"seeds"`
	BaseSeed   int64             `json:"base_seed"`
	Rate       float64           `json:"rate"`
	MaxPerRun  uint64            `json:"max_per_run,omitempty"`
	Ops        int               `json:"ops"`
	Cells      []Cell            `json:"cells"`
	Counters   []metrics.Counter `json:"counters,omitempty"`
	Strict     bool              `json:"strict"`
	// StrictFailures lists every expectation miss (empty on a pass).
	StrictFailures []string `json:"strict_failures,omitempty"`
}

func classify(r RunOutcome) string {
	switch {
	case r.Violations > 0:
		return "detected"
	case r.Injections > 0 && r.Recoveries > 0:
		return "tolerated"
	case r.Injections > 0:
		return "silent"
	}
	return "clean"
}

// add classifies one run and folds it into the row's counts.
func (c *Cell) add(ro RunOutcome) {
	ro.Outcome = classify(ro)
	c.Runs = append(c.Runs, ro)
	c.Injections += ro.Injections
	c.Violations += ro.Violations
	c.Recoveries += ro.Recoveries
	switch ro.Outcome {
	case "detected":
		c.Detected++
	case "tolerated":
		c.Tolerated++
	case "silent":
		c.Silent++
	default:
		c.Clean++
	}
}

func verdict(c Cell) string {
	switch {
	case c.Silent > 0:
		return "silent"
	case c.Detected > 0:
		return "detected-unsound"
	case c.Tolerated > 0:
		return "tolerated"
	case c.Injections == 0 && c.Class != controlClass:
		return "no-injections"
	}
	return "clean"
}

// strictCheck applies the Reloaded expectation matrix and the universal
// rules (no silent rows anywhere; controls clean everywhere).
func strictCheck(cells []Cell) []string {
	// Which way each class must land against Reloaded: the first three
	// subvert the protocol invisibly to the revoker, so only the oracle can
	// catch them; the last two are infrastructure faults recovery absorbs.
	// shootdown-drop can legitimately land either way — the application may
	// or may not race the stale-TLB window before the retry heals it — so
	// it only has to avoid silence, which the universal rule covers.
	expect := map[string]string{
		"cap-dirty-loss":      "detected-unsound",
		"barrier-suppress":    "detected-unsound",
		"tag-stale-read":      "detected-unsound",
		"worker-crash":        "tolerated",
		"epoch-publish-delay": "tolerated",
	}
	var fails []string
	for _, c := range cells {
		if c.Silent > 0 {
			fails = append(fails, fmt.Sprintf(
				"%s/%s: %d run(s) took injections with no detection and no recovery",
				c.Strategy, c.Class, c.Silent))
		}
		if c.Class == controlClass && c.Verdict != "clean" {
			fails = append(fails, fmt.Sprintf(
				"%s/%s: faults-disabled control is %s (%d violations)",
				c.Strategy, c.Class, c.Verdict, c.Violations))
		}
		if c.Strategy != revoke.Reloaded.String() || c.Class == controlClass {
			continue
		}
		if want, ok := expect[c.Class]; ok && c.Verdict != want {
			fails = append(fails, fmt.Sprintf(
				"%s/%s: verdict %s, want %s", c.Strategy, c.Class, c.Verdict, want))
		}
		if c.Injections == 0 {
			fails = append(fails, fmt.Sprintf(
				"%s/%s: fault class never fired — the hook is not wired", c.Strategy, c.Class))
		}
	}
	return fails
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("chaos: ")
	strategies := flag.String("strategies", "reloaded", "comma-separated strategies (see cmd/cornucopia) or 'all'")
	classes := flag.String("classes", "all", "comma-separated fault classes, 'all', or 'none' (control runs only)")
	seeds := flag.Int("seeds", 3, "runs per (strategy, class) cell")
	seed := flag.Int64("seed", 1, "base seed (run i uses seed+i*1000003 for workload and faults)")
	rate := flag.Float64("rate", 0, "per-opportunity injection probability (0 = every opportunity)")
	max := flag.Uint64("max", 8, "injection cap per class per run (0 = unbounded)")
	delay := flag.Uint64("delay", 0, "fault duration in cycles for time-shaped faults (0 = default)")
	ops := flag.Int("ops", 4000, "chaos workload churn steps per run")
	shared := cliflags.Register()
	out := flag.String("out", "", "write the campaign report JSON to this file")
	strict := flag.Bool("strict", false, "apply the Reloaded expectation matrix and exit non-zero on a miss")
	listClasses := flag.Bool("list-classes", false, "list fault classes and exit")
	flag.Parse()
	cliflags.ExitOnArgs(flag.CommandLine, 0)

	if *listClasses {
		for _, c := range fault.Classes() {
			fmt.Println(c)
		}
		return
	}

	// Host-side profiling (-cpuprofile/-memprofile): where the campaign
	// spends real time, not simulated cycles.
	stopProf, err := shared.StartProfiles()
	if err != nil {
		log.Fatal(err)
	}

	var strats []revoke.Strategy
	if *strategies == "all" {
		strats = revoke.Strategies()
	} else {
		for _, name := range strings.Split(*strategies, ",") {
			s, err := revoke.ParseStrategy(name)
			if err != nil {
				log.Fatal(err)
			}
			strats = append(strats, s)
		}
	}
	var clss []string
	switch *classes {
	case "all":
		clss = fault.ClassNames()
	case controlClass:
		// Control-only campaign: every strategy runs with faults disabled,
		// so the oracle audits the protocols themselves.
	default:
		for _, name := range strings.Split(*classes, ",") {
			c, err := fault.ParseClass(name)
			if err != nil {
				log.Fatal(err)
			}
			clss = append(clss, c.String())
		}
	}
	if *seeds < 1 {
		log.Fatal("-seeds must be at least 1")
	}

	// Row order is (strategy, control-then-classes, seed): fully
	// deterministic, independent of completion order.
	type cellKey struct {
		strat revoke.Strategy
		class string
	}
	rowClasses := append([]string{controlClass}, clss...)
	var keys []cellKey
	jobs := map[cellKey][]expt.Job{}
	for _, s := range strats {
		for _, cls := range rowClasses {
			k := cellKey{s, cls}
			keys = append(keys, k)
			for i := 0; i < *seeds; i++ {
				cfg := harness.DefaultConfig()
				cfg.Seed = *seed + int64(i)*harness.RepeatStride
				// The campaign regime: frequent epochs (small quarantine
				// floor) and a tight scheduler skew quantum so application
				// capability loads interleave with the concurrent sweep in
				// virtual time.
				cfg.Machine.Sim.SkewQuantum = 2_000
				cfg.QuarantineMin = 8 << 10
				cfg.Oracle = true
				if cls != controlClass {
					cfg.Fault = &fault.Spec{
						Seed:        cfg.Seed,
						Classes:     []string{cls},
						Rate:        *rate,
						MaxPerClass: *max,
						DelayCycles: *delay,
					}
				}
				cond := harness.Condition{
					Name: s.String(), Shimmed: true, Strategy: s, Workers: 3,
				}
				jobs[k] = append(jobs[k], expt.Job{
					Workload: expt.ChaosWorkload(*ops), Cond: cond, Cfg: cfg,
				})
			}
		}
	}

	ids := append([]string(nil), clss...)
	sort.Strings(ids)
	sortedStrats := make([]string, len(strats))
	for i, s := range strats {
		sortedStrats[i] = s.String()
	}
	sort.Strings(sortedStrats)
	grid := fmt.Sprintf("strategies=%s classes=%s seeds=%d seed=%d rate=%g max=%d delay=%d ops=%d",
		strings.Join(sortedStrats, ","), strings.Join(ids, ","),
		*seeds, *seed, *rate, *max, *delay, *ops)
	if shared.TraceEvents > 0 {
		// Ring depth shapes the snapshot a manifest caches; pin it like any
		// other grid flag.
		grid += fmt.Sprintf(" trace-events=%d", shared.TraceEvents)
	}
	manifest, err := shared.Manifest("chaos", grid)
	if err != nil {
		log.Fatal(err)
	}
	if manifest != nil {
		defer manifest.Close()
	}

	pcfg, live, err := shared.PoolConfig("chaos", manifest)
	if err != nil {
		log.Fatal(err)
	}
	if shared.TraceEvents > 0 {
		pcfg.Telemetry = &telemetry.Options{
			SampleEvery: telemetry.DefaultSampleEvery, TraceEvents: shared.TraceEvents,
		}
	}
	pool, closeExec, err := shared.NewExecutor("chaos", grid, pcfg, live)
	if err != nil {
		log.Fatal(err)
	}
	for _, k := range keys {
		pool.Prefetch(jobs[k])
	}

	rep := Report{
		Schema: Schema, Seeds: *seeds, BaseSeed: *seed,
		Rate: *rate, MaxPerRun: *max, Ops: *ops, Strict: *strict,
	}
	for _, s := range strats {
		rep.Strategies = append(rep.Strategies, s.String())
	}
	rep.Classes = clss

	var counters metrics.Counters
	failedJobs := 0
	for _, k := range keys {
		cell := Cell{Strategy: k.strat.String(), Class: k.class}
		for _, j := range jobs[k] {
			jr, err := pool.Get(j)
			if err != nil {
				log.Print(err)
				failedJobs++
				continue
			}
			ro := RunOutcome{Seed: jr.Seed}
			if jr.Fault != nil {
				ro.Injections = jr.Fault.Injections
			}
			if jr.Oracle != nil {
				ro.Violations = jr.Oracle.ViolationCount
			}
			ro.Recoveries = jr.Recovery.Total()
			cell.add(ro)
		}
		cell.Verdict = verdict(cell)
		rep.Cells = append(rep.Cells, cell)
		counters.Add("injections:"+cell.Class, cell.Injections)
		counters.Add("violations:"+cell.Strategy, cell.Violations)
		counters.Add("recoveries:"+cell.Strategy, cell.Recoveries)
	}
	// Every Get has returned: drain the worker fleet (no-op under
	// -exec=local) before reporting.
	if err := closeExec(); err != nil {
		log.Printf("closing executor: %v", err)
	}
	if err := shared.WriteTimeline("chaos", pool); err != nil {
		log.Fatal(err)
	}
	rep.Counters = counters.Snapshot()
	if *strict {
		rep.StrictFailures = strictCheck(rep.Cells)
	}

	fmt.Printf("%-18s %-20s %-17s %5s %5s %5s\n",
		"STRATEGY", "CLASS", "VERDICT", "INJ", "VIOL", "RECOV")
	for _, c := range rep.Cells {
		fmt.Printf("%-18s %-20s %-17s %5d %5d %5d\n",
			c.Strategy, c.Class, c.Verdict, c.Injections, c.Violations, c.Recoveries)
	}
	st := pool.Stats()
	fmt.Printf("chaos: %d job(s) ran, %d from manifest, %d retried, %d failed\n",
		st.Executed, st.Cached, st.Retries, st.Failed)

	if *out != "" {
		b, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("chaos: wrote %s (schema %s)\n", *out, Schema)
	}

	if err := stopProf(); err != nil {
		log.Fatal(err)
	}
	shared.Live.Finish(live)
	if len(rep.StrictFailures) > 0 {
		for _, f := range rep.StrictFailures {
			log.Printf("strict: %s", f)
		}
		os.Exit(1)
	}
	if failedJobs > 0 {
		os.Exit(1)
	}
}
