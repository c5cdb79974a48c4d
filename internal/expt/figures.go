// Figure registry: one entry per table and figure of the paper's
// evaluation (§5). Each figure declares its grid of jobs against a Getter
// (prefetched as a batch, so a Pool shards it across workers) and folds
// the results into the same harness.Table the sequential drivers used to
// produce — byte-identical output at any worker count, since every job is
// deterministic per seed and the fold orders are fixed.
package expt

import (
	"fmt"
	"sort"

	"repro/internal/bus"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/revoke"
	"repro/internal/workload/heapscale"
	"repro/internal/workload/spec"
)

// Options parameterizes a sweep: repetition count, the per-suite
// configurations, and the interactive workloads' sizes. The zero value is
// not useful; start from DefaultOptions.
type Options struct {
	// Reps is the number of cold-boot repetitions per grid cell.
	Reps int
	// SpecCfg, PgCfg and QPSCfg configure the three workload suites.
	// Figure 9 and Table 2 derive their pgbench/QPS scales from
	// SpecCfg.Scale, as the paper's drivers did.
	SpecCfg harness.Config
	PgCfg   harness.Config
	QPSCfg  harness.Config
	// Txs is the pgbench transaction count per run (Figures 5-7, Table 1).
	Txs int
	// Measure and Warmup are the gRPC QPS windows in cycles (Figure 8).
	Measure, Warmup uint64
}

// DefaultOptions mirrors cmd/sweep's default grid flags.
func DefaultOptions() Options {
	qcfg := harness.QPSConfig()
	perMs := uint64(qcfg.Machine.Sim.HzGHz * 1e6)
	return Options{
		Reps:    3,
		SpecCfg: harness.SpecConfig(),
		PgCfg:   harness.PgbenchConfig(),
		QPSCfg:  qcfg,
		Txs:     6000,
		Measure: 500 * perMs,
		Warmup:  50 * perMs,
	}
}

// Figure is one regenerable artifact of the evaluation.
type Figure struct {
	// ID is the stable handle: "fig1" … "fig9", "table1", "table2".
	ID string
	// Title is a one-line description for listings.
	Title string
	// Build runs the figure's grid through g and folds the table.
	Build func(o Options, g Getter) (*harness.Table, error)
}

// Figures returns every figure in the paper's order.
func Figures() []Figure {
	return []Figure{
		{"fig1", "SPEC CPU2006 INT wall-clock overheads", fig1Build},
		{"fig2", "SPEC total CPU-time overheads", fig2Build},
		{"fig3", "SPEC peak-RSS ratios", fig3Build},
		{"fig4", "SPEC DRAM bus traffic overheads", fig4Build},
		{"fig5", "pgbench normalized time overheads", fig5Build},
		{"fig6", "pgbench bus access overheads", fig6Build},
		{"fig7", "pgbench per-transaction latency distribution", fig7Build},
		{"table1", "pgbench latency under fixed-rate schedules", table1Build},
		{"fig8", "gRPC QPS latency percentiles", fig8Build},
		{"fig9", "revocation phase time distributions", fig9Build},
		{"table2", "Reloaded revocation rate statistics", table2Build},
		{"heapscale", "heap-scale sweep and allocation costs", heapscaleBuild},
	}
}

// ByID looks a figure up by its handle.
func ByID(id string) (Figure, bool) {
	for _, f := range Figures() {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}

// Generate runs one figure end to end. A nil Getter gets a fresh
// sequential pool (workers=1, no manifest).
func Generate(id string, o Options, g Getter) (*harness.Table, error) {
	f, ok := ByID(id)
	if !ok {
		return nil, fmt.Errorf("expt: unknown figure %q", id)
	}
	if g == nil {
		g = NewPool(PoolConfig{Workers: 1})
	}
	return f.Build(o, g)
}

// Cell formatters, as the sequential drivers printed them.
func pct(v float64) string { return fmt.Sprintf("%+.1f%%", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }

// collect prefetches jobs and blocks for their results, in order.
func collect(g Getter, jobs []Job) ([]*harness.Result, error) {
	g.Prefetch(jobs)
	out := make([]*harness.Result, len(jobs))
	for i, j := range jobs {
		r, err := g.Get(j)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// specMatrix schedules profiles × (baseline + conds) × reps and returns
// results keyed by profile then condition name.
func specMatrix(g Getter, profiles []spec.Profile, conds []harness.Condition,
	cfg harness.Config, reps int) (map[string]map[string][]*harness.Result, error) {
	all := append([]harness.Condition{harness.Baseline()}, conds...)
	type cell struct {
		prof, cond string
		jobs       []Job
	}
	var cells []cell
	for _, p := range profiles {
		for _, c := range all {
			jobs := repeatJobs(SpecWorkload(p.Name()), c, cfg, reps, harness.RepeatStride)
			g.Prefetch(jobs)
			cells = append(cells, cell{p.Name(), c.Name, jobs})
		}
	}
	out := map[string]map[string][]*harness.Result{}
	for _, cl := range cells {
		if out[cl.prof] == nil {
			out[cl.prof] = map[string][]*harness.Result{}
		}
		rs := make([]*harness.Result, len(cl.jobs))
		for i, j := range cl.jobs {
			r, err := g.Get(j)
			if err != nil {
				return nil, err
			}
			rs[i] = r
		}
		out[cl.prof][cl.cond] = rs
	}
	return out, nil
}

// pgbenchMatrix schedules pgbench under baseline + the standard conditions.
func pgbenchMatrix(g Getter, txs int, cfg harness.Config, reps int) (map[string][]*harness.Result, error) {
	conds := append([]harness.Condition{harness.Baseline()}, harness.StandardConditions()...)
	grids := make([][]Job, len(conds))
	for i, c := range conds {
		grids[i] = repeatJobs(PgbenchWorkload(txs), c, cfg, reps, harness.RepeatStride)
		g.Prefetch(grids[i])
	}
	out := map[string][]*harness.Result{}
	for i, c := range conds {
		rs, err := collect(g, grids[i])
		if err != nil {
			return nil, err
		}
		out[c.Name] = rs
	}
	return out, nil
}

// benchNames returns the distinct benchmark names of profiles, in order.
func benchNames(profiles []spec.Profile) []string {
	var names []string
	seen := map[string]bool{}
	for _, p := range profiles {
		if !seen[p.Bench] {
			seen[p.Bench] = true
			names = append(names, p.Bench)
		}
	}
	return names
}

// geomeanOverheadPct computes, for one benchmark and condition, the geomean
// over its inputs of metric ratios versus baseline, as a percentage.
func geomeanOverheadPct(profiles []spec.Profile, m map[string]map[string][]*harness.Result,
	bench, cond string, metric func([]*harness.Result) float64) float64 {
	var ratios []float64
	for _, p := range profiles {
		if p.Bench != bench {
			continue
		}
		base := metric(m[p.Name()]["Baseline"])
		test := metric(m[p.Name()][cond])
		ratios = append(ratios, metrics.Ratio(test, base))
	}
	return (metrics.Geomean(ratios) - 1) * 100
}

// fig1Build reproduces Figure 1: wall-clock overheads of Reloaded,
// Cornucopia and CHERIvoke over the CHERI spatially-safe baseline, per SPEC
// benchmark (geomean over inputs).
func fig1Build(o Options, g Getter) (*harness.Table, error) {
	profiles := spec.Profiles()
	conds := harness.SweepConditions()
	m, err := specMatrix(g, profiles, conds, o.SpecCfg, o.Reps)
	if err != nil {
		return nil, err
	}
	t := &harness.Table{
		Title:  "Figure 1: SPEC CPU2006 INT wall-clock overheads vs CHERI baseline",
		Header: []string{"benchmark", "Reloaded", "Cornucopia", "CHERIvoke"},
	}
	for _, bench := range benchNames(profiles) {
		row := []string{bench}
		for _, c := range conds {
			row = append(row, pct(geomeanOverheadPct(profiles, m, bench, c.Name, harness.MeanWall)))
		}
		t.AddRow(row...)
	}
	t.AddNote("bzip2 and sjeng do not engage revocation and are excluded from subsequent figures")
	return t, nil
}

// fig2Build reproduces Figure 2: total CPU-time overheads (all cores),
// including asynchronous quarantine management (Paint+sync).
func fig2Build(o Options, g Getter) (*harness.Table, error) {
	profiles := spec.RevocationEngaging()
	conds := harness.StandardConditions()
	m, err := specMatrix(g, profiles, conds, o.SpecCfg, o.Reps)
	if err != nil {
		return nil, err
	}
	t := &harness.Table{
		Title:  "Figure 2: SPEC total CPU-time overheads (all cores)",
		Header: []string{"benchmark", "Reloaded", "Cornucopia", "CHERIvoke", "Paint+sync"},
	}
	for _, bench := range benchNames(profiles) {
		row := []string{bench}
		for _, c := range conds {
			row = append(row, pct(geomeanOverheadPct(profiles, m, bench, c.Name, harness.MeanCPU)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// fig3Build reproduces Figure 3: peak-RSS ratio between test condition and
// baseline, sorted descending by baseline RSS.
func fig3Build(o Options, g Getter) (*harness.Table, error) {
	profiles := []spec.Profile{}
	for _, name := range []string{"xalancbmk", "omnetpp", "astar", "libquantum", "gobmk", "hmmer"} {
		profiles = append(profiles, spec.ByName(name)[0])
	}
	conds := harness.StandardConditions()
	m, err := specMatrix(g, profiles, conds, o.SpecCfg, o.Reps)
	if err != nil {
		return nil, err
	}
	type row struct {
		name    string
		baseMiB float64
		ratios  []float64
	}
	var rows []row
	for _, p := range profiles {
		base := harness.MeanRSS(m[p.Name()]["Baseline"])
		r := row{name: p.Name(), baseMiB: base * 4096 / (1 << 20)}
		for _, c := range conds {
			r.ratios = append(r.ratios, metrics.Ratio(harness.MeanRSS(m[p.Name()][c.Name]), base))
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].baseMiB > rows[j].baseMiB })
	t := &harness.Table{
		Title:  "Figure 3: peak memory footprint (RSS) ratio vs baseline",
		Header: []string{"benchmark", "baseRSS", "Reloaded", "Cornucopia", "CHERIvoke", "Paint+sync"},
	}
	for _, r := range rows {
		cells := []string{r.name, fmt.Sprintf("%.1fMiB", r.baseMiB)}
		for _, v := range r.ratios {
			cells = append(cells, f3(v))
		}
		t.AddRow(cells...)
	}
	t.AddNote("policy target is 1.33x (33%% of the heap in quarantine); small-heap benchmarks are dominated by the scaled 8 MiB quarantine floor")
	return t, nil
}

// fig4Build reproduces Figure 4: DRAM bus traffic overheads, with
// Reloaded's mean traffic as a percentage of Cornucopia's.
func fig4Build(o Options, g Getter) (*harness.Table, error) {
	profiles := spec.RevocationEngaging()
	conds := harness.SweepConditions()
	m, err := specMatrix(g, profiles, conds, o.SpecCfg, o.Reps)
	if err != nil {
		return nil, err
	}
	t := &harness.Table{
		Title:  "Figure 4: SPEC DRAM bus traffic overheads",
		Header: []string{"benchmark", "baseGTx", "Reloaded", "Cornucopia", "CHERIvoke", "Rel/Cor"},
	}
	var relCorRatios []float64
	for _, bench := range benchNames(profiles) {
		var baseTx float64
		for _, p := range profiles {
			if p.Bench == bench {
				baseTx += harness.MeanDRAM(m[p.Name()]["Baseline"])
			}
		}
		row := []string{bench, fmt.Sprintf("%.2g", baseTx/1e9)}
		for _, c := range conds {
			row = append(row, pct(geomeanOverheadPct(profiles, m, bench, c.Name, harness.MeanDRAM)))
		}
		rel := geomeanOverheadPct(profiles, m, bench, "Reloaded", harness.MeanDRAM)
		cor := geomeanOverheadPct(profiles, m, bench, "Cornucopia", harness.MeanDRAM)
		ratio := metrics.Ratio(rel, cor)
		relCorRatios = append(relCorRatios, ratio)
		row = append(row, fmt.Sprintf("%.0f%%", ratio*100))
		t.AddRow(row...)
	}
	sort.Float64s(relCorRatios)
	t.AddNote("median Reloaded traffic overhead relative to Cornucopia: %.0f%% (paper: 87%%)",
		relCorRatios[len(relCorRatios)/2]*100)
	return t, nil
}

// fig5Build reproduces Figure 5: normalized time overheads for pgbench:
// wall clock, total CPU (all cores), and the server thread alone.
func fig5Build(o Options, g Getter) (*harness.Table, error) {
	m, err := pgbenchMatrix(g, o.Txs, o.PgCfg, o.Reps)
	if err != nil {
		return nil, err
	}
	t := &harness.Table{
		Title:  "Figure 5: pgbench normalized time overheads",
		Header: []string{"condition", "wall", "totalCPU", "serverCPU"},
	}
	serverCPU := func(rs []*harness.Result) float64 {
		var s metrics.Samples
		for _, r := range rs {
			s.AddU(r.AppCPUCycles)
		}
		return s.Mean()
	}
	base := m["Baseline"]
	for _, c := range harness.StandardConditions() {
		rs := m[c.Name]
		t.AddRow(c.Name,
			pct(metrics.Overhead(harness.MeanWall(rs), harness.MeanWall(base))),
			pct(metrics.Overhead(harness.MeanCPU(rs), harness.MeanCPU(base))),
			pct(metrics.Overhead(serverCPU(rs), serverCPU(base))))
	}
	t.AddNote("the workload is not steadily CPU-bound: server CPU overheads can exceed wall overheads (§5.2)")
	return t, nil
}

// fig6Build reproduces Figure 6: normalized bus access overheads for
// pgbench, total and on the application core.
func fig6Build(o Options, g Getter) (*harness.Table, error) {
	cfg := o.PgCfg
	m, err := pgbenchMatrix(g, o.Txs, cfg, o.Reps)
	if err != nil {
		return nil, err
	}
	appCore := cfg.AppCores
	if len(appCore) == 0 {
		appCore = []int{3}
	}
	coreDRAM := func(rs []*harness.Result) float64 {
		var s metrics.Samples
		for _, r := range rs {
			s.AddU(r.DRAMByCore[appCore[0]])
		}
		return s.Mean()
	}
	revokerDRAM := func(rs []*harness.Result) float64 {
		var s metrics.Samples
		for _, r := range rs {
			s.AddU(r.DRAMByAgent[bus.AgentRevoker.String()])
		}
		return s.Mean()
	}
	t := &harness.Table{
		Title:  "Figure 6: pgbench normalized bus access overheads",
		Header: []string{"condition", "total", "appCore", "sweepTraffic"},
	}
	base := m["Baseline"]
	for _, c := range harness.StandardConditions() {
		rs := m[c.Name]
		t.AddRow(c.Name,
			pct(metrics.Overhead(harness.MeanDRAM(rs), harness.MeanDRAM(base))),
			pct(metrics.Overhead(coreDRAM(rs), coreDRAM(base))),
			fmt.Sprintf("%.1f%%", 100*revokerDRAM(rs)/harness.MeanDRAM(base)))
	}
	relOv := metrics.Overhead(harness.MeanDRAM(m["Reloaded"]), harness.MeanDRAM(base))
	corOv := metrics.Overhead(harness.MeanDRAM(m["Cornucopia"]), harness.MeanDRAM(base))
	t.AddNote("Reloaded incurs %.0f%% of Cornucopia's traffic overhead (paper: <50%%)", 100*metrics.Ratio(relOv, corOv))
	t.AddNote("at 1/8 scale, quarantine cache effects dominate both strategies' traffic and Cornucopia's STW re-sweep collapses; the paper's pgbench traffic gap does not reproduce here (it does across SPEC, Figure 4)")
	return t, nil
}

// Fig7Samples collects the per-transaction latency samples per condition
// (in milliseconds), for plotting Figure 7's CDF directly.
func Fig7Samples(o Options, g Getter) (map[string]*metrics.Samples, error) {
	m, err := pgbenchMatrix(g, o.Txs, o.PgCfg, o.Reps)
	if err != nil {
		return nil, err
	}
	out := map[string]*metrics.Samples{}
	for name, rs := range m {
		lat := &metrics.Samples{}
		for _, r := range rs {
			lat.Merge(r.Lat().Scaled(r.HzGHz * 1e6)) // cycles → ms
		}
		out[name] = lat
	}
	return out, nil
}

// fig7Build reproduces Figure 7: the per-transaction latency distribution
// per condition, with the median world-stopped durations and Reloaded's
// median cumulative fault-handling time.
func fig7Build(o Options, g Getter) (*harness.Table, error) {
	m, err := pgbenchMatrix(g, o.Txs, o.PgCfg, o.Reps)
	if err != nil {
		return nil, err
	}
	t := &harness.Table{
		Title:  "Figure 7: pgbench per-transaction latency distribution (ms)",
		Header: []string{"condition", "p50", "p85", "p90", "p95", "p99", "p99.9", "max"},
	}
	order := []string{"Paint+sync", "CHERIvoke", "Cornucopia", "Reloaded"}
	for _, name := range order {
		rs := m[name]
		lat := &metrics.Samples{}
		for _, r := range rs {
			lat.Merge(r.Lat())
		}
		hz := cyclesPerMs(rs)
		row := []string{name}
		for _, p := range []float64{50, 85, 90, 95, 99, 99.9, 100} {
			row = append(row, pctCell(lat, p, hz))
		}
		t.AddRow(row...)
	}
	// Phase medians (the dashed/dotted segments of the figure).
	for _, name := range []string{"CHERIvoke", "Cornucopia", "Reloaded"} {
		stw := &metrics.Samples{}
		faults := &metrics.Samples{}
		for _, r := range m[name] {
			for _, e := range r.Epochs {
				stw.AddU(e.STWCycles)
				faults.AddU(e.FaultCycles)
			}
		}
		hz := cyclesPerMs(m[name])
		stwMed, ok := stw.MedianOK()
		switch {
		case !ok:
			t.AddNote("%s recorded no revocation epochs", name)
		case name == "Reloaded":
			fltMed, _ := faults.MedianOK()
			t.AddNote("%s median world-stopped %.4f ms; median cumulative fault time %.4f ms",
				name, stwMed/hz, fltMed/hz)
		default:
			t.AddNote("%s median world-stopped %.4f ms", name, stwMed/hz)
		}
	}
	return t, nil
}

// cyclesPerMs reads the cell's clock rate, defaulting to the standard
// 2.5 GHz machine when the cell is empty.
func cyclesPerMs(rs []*harness.Result) float64 {
	if len(rs) > 0 && rs[0].HzGHz != 0 {
		return rs[0].HzGHz * 1e6
	}
	return 2.5e6
}

// pctCell renders percentile p of lat in milliseconds at hz cycles/ms,
// or "--" when the cell holds no samples.
func pctCell(lat *metrics.Samples, p, hz float64) string {
	v, ok := lat.PercentileOK(p)
	if !ok {
		return "--"
	}
	return f3(v / hz)
}

// table1Build reproduces Table 1: pgbench latency percentiles under
// fixed-rate schedules. Rates are chosen as the paper's fractions of the
// measured unscheduled throughput, so the rated grid is adaptive: its jobs
// are derived from the unscheduled stage's (deterministic) results, which
// keeps their content hashes stable across resumes.
func table1Build(o Options, g Getter) (*harness.Table, error) {
	cfg, txs, reps := o.PgCfg, o.Txs, o.Reps
	cond := harness.Condition{Name: "Reloaded", Shimmed: true, Strategy: revoke.Reloaded, RevokerCores: []int{2}}
	un, err := collect(g, repeatJobs(PgbenchWorkload(txs), cond, cfg, reps, harness.RepeatStride))
	if err != nil {
		return nil, err
	}
	unTPS := float64(txs) / un[0].Seconds(un[0].WallCycles)
	t := &harness.Table{
		Title:  "Table 1: pgbench latency percentiles (ms) under fixed-rate schedules (Reloaded)",
		Header: []string{"tx/sec", "p50", "p90", "p95", "p99", "p99.9"},
	}
	addRow := func(label string, rs []*harness.Result) {
		lat := &metrics.Samples{}
		for _, r := range rs {
			lat.Merge(r.Lat())
		}
		hz := cyclesPerMs(rs)
		row := []string{label}
		for _, p := range []float64{50, 90, 95, 99, 99.9} {
			row = append(row, pctCell(lat, p, hz))
		}
		t.AddRow(row...)
	}
	fracs := []float64{0.35, 0.53, 0.88}
	rated := make([][]Job, len(fracs))
	for i, frac := range fracs {
		rated[i] = repeatJobs(PgbenchRatedWorkload(txs, unTPS*frac), cond, cfg, reps, harness.RepeatStride)
		g.Prefetch(rated[i])
	}
	for i, frac := range fracs {
		rs, err := collect(g, rated[i])
		if err != nil {
			return nil, err
		}
		addRow(fmt.Sprintf("%.0f", unTPS*frac), rs)
	}
	addRow("unscheduled", un)
	t.AddNote("rates are 35%%/53%%/88%% of the measured unscheduled throughput (%.0f tx/s), matching the paper's 100/150/250 of ~285", unTPS)
	return t, nil
}

// fig8Build reproduces Figure 8: gRPC QPS latency percentiles normalized
// to the no-revocation baseline, plus throughput impact.
func fig8Build(o Options, g Getter) (*harness.Table, error) {
	cfg := o.QPSCfg
	pcts := []float64{50, 90, 95, 99, 99.9}
	wref := QPSWorkload(o.Measure, o.Warmup)
	conds := append([]harness.Condition{harness.Baseline()}, harness.QPSConditions()...)
	grids := make([][]Job, len(conds))
	for i, c := range conds {
		grids[i] = repeatJobs(wref, c, cfg, o.Reps, strideQPS)
		g.Prefetch(grids[i])
	}
	type cellSamples struct{ perRun map[float64]*metrics.Samples }
	runCond := func(jobs []Job) (*cellSamples, *metrics.Samples, error) {
		cs := &cellSamples{perRun: map[float64]*metrics.Samples{}}
		for _, p := range pcts {
			cs.perRun[p] = &metrics.Samples{}
		}
		tput := &metrics.Samples{}
		for _, j := range jobs {
			r, err := g.Get(j)
			if err != nil {
				return nil, nil, err
			}
			lat := r.Lat()
			for _, p := range pcts {
				// A run with no measured events contributes no percentile
				// samples (instead of panicking the whole figure).
				if v, ok := lat.PercentileOK(p); ok {
					cs.perRun[p].Add(v)
				}
			}
			tput.Add(float64(r.Messages) / r.Seconds(r.MeasureCycles))
		}
		return cs, tput, nil
	}
	baseCS, baseTput, err := runCond(grids[0])
	if err != nil {
		return nil, err
	}
	t := &harness.Table{
		Title:  "Figure 8: gRPC QPS latency percentiles normalized to baseline",
		Header: []string{"condition", "p50", "p90", "p95", "p99", "p99.9", "QPS delta"},
	}
	baseRow := []string{"Baseline(ms)"}
	hz := 2.5e6 // cycles per ms at 2.5 GHz
	if cfg.Machine.Sim.HzGHz != 0 {
		hz = cfg.Machine.Sim.HzGHz * 1e6
	}
	for _, p := range pcts {
		baseRow = append(baseRow, f3(baseCS.perRun[p].Mean()/hz))
	}
	baseRow = append(baseRow, "--")
	t.AddRow(baseRow...)
	for i, c := range conds[1:] {
		cs, tput, err := runCond(grids[i+1])
		if err != nil {
			return nil, err
		}
		row := []string{c.Name}
		for _, p := range pcts {
			row = append(row, fmt.Sprintf("%.2fx", metrics.Ratio(cs.perRun[p].Mean(), baseCS.perRun[p].Mean())))
		}
		row = append(row, pct(metrics.Overhead(tput.Mean(), baseTput.Mean())))
		t.AddRow(row...)
	}
	t.AddNote("CHERIvoke is excluded, as in the paper (footnote 25); the revoker is unpinned and competes with the server")
	return t, nil
}

// phaseRows summarizes one workload's revocation phase durations under the
// three sweeping strategies (Figure 9's boxes): five-number summaries in
// milliseconds.
func phaseRows(t *harness.Table, label string, results map[string][]*harness.Result) {
	box := func(s *metrics.Samples, hz float64) string {
		if s.N() == 0 {
			return "--"
		}
		b := s.Boxplot()
		return fmt.Sprintf("%.3f/%.3f/%.3f/%.3f/%.3f", b.Min/hz, b.P25/hz, b.Median/hz, b.P75/hz, b.Max/hz)
	}
	collect := func(cond string, f func(revoke.EpochRecord) uint64) (*metrics.Samples, float64) {
		s := &metrics.Samples{}
		hz := 2.5e6
		for _, r := range results[cond] {
			hz = r.HzGHz * 1e6
			for _, e := range r.Epochs {
				s.AddU(f(e))
			}
		}
		return s, hz
	}
	stw := func(e revoke.EpochRecord) uint64 { return e.STWCycles }
	conc := func(e revoke.EpochRecord) uint64 { return e.ConcurrentCycles }
	flt := func(e revoke.EpochRecord) uint64 { return e.FaultCycles }

	s, hz := collect("CHERIvoke", stw)
	t.AddRow(label, "CHERIvoke", "stop-the-world", box(s, hz))
	s, hz = collect("Cornucopia", conc)
	t.AddRow(label, "Cornucopia", "concurrent", box(s, hz))
	s, hz = collect("Cornucopia", stw)
	t.AddRow(label, "Cornucopia", "stop-the-world", box(s, hz))
	s, hz = collect("Reloaded", stw)
	t.AddRow(label, "Reloaded", "stop-the-world", box(s, hz))
	s, hz = collect("Reloaded", conc)
	t.AddRow(label, "Reloaded", "concurrent", box(s, hz))
	s, hz = collect("Reloaded", flt)
	t.AddRow(label, "Reloaded", "faults (cum/epoch)", box(s, hz))
}

// fig9Scales derives the pgbench and gRPC configurations from the SPEC
// scale, as Figure 9 and Table 2 always have, at the options' pgbench and
// gRPC seeds.
func fig9Scales(o Options) (pgCfg, qpsCfg harness.Config) {
	pgCfg = harness.PgbenchConfig()
	qpsCfg = harness.QPSConfig()
	pgCfg.Seed, qpsCfg.Seed = o.PgCfg.Seed, o.QPSCfg.Seed
	if s := o.SpecCfg.Scale; s != 0 && s != 64 {
		pgCfg.Scale = harness.PgbenchScale(s)
		qpsCfg.Scale = s
	}
	return pgCfg, qpsCfg
}

// fig9Build reproduces Figure 9: revocation phase time distributions for a
// representative subset of benchmarks.
func fig9Build(o Options, g Getter) (*harness.Table, error) {
	cfg := o.SpecCfg
	pgCfg, qpsCfg := fig9Scales(o)
	t := &harness.Table{
		Title:  "Figure 9: revocation phase times, min/p25/median/p75/max (ms)",
		Header: []string{"benchmark", "strategy", "phase", "distribution(ms)"},
	}
	subset := []string{"xalancbmk", "astar", "omnetpp", "hmmer", "gobmk", "libquantum"}
	// Schedule the entire grid before collecting any of it.
	specJobs := map[string]map[string][]Job{}
	for _, name := range subset {
		p := spec.ByName(name)[0]
		specJobs[name] = map[string][]Job{}
		for _, c := range harness.SweepConditions() {
			jobs := repeatJobs(SpecWorkload(p.Name()), c, cfg, o.Reps, harness.RepeatStride)
			g.Prefetch(jobs)
			specJobs[name][c.Name] = jobs
		}
	}
	pgJobs := map[string][]Job{}
	for _, c := range harness.SweepConditions() {
		jobs := repeatJobs(PgbenchWorkload(3000), c, pgCfg, o.Reps, harness.RepeatStride)
		g.Prefetch(jobs)
		pgJobs[c.Name] = jobs
	}
	// gRPC rows (revoker unpinned; CHERIvoke excluded as in the paper).
	qpsJobs := map[string][]Job{}
	for _, c := range harness.QPSConditions() {
		if !c.Shimmed || c.Strategy == revoke.PaintSync {
			continue
		}
		jobs := repeatJobs(QPSWorkload(1_000_000_000, 100_000_000), c, qpsCfg, o.Reps, strideQPS9)
		g.Prefetch(jobs)
		qpsJobs[c.Name] = jobs
	}

	collectMap := func(jobs map[string][]Job) (map[string][]*harness.Result, error) {
		out := map[string][]*harness.Result{}
		for name, js := range jobs {
			rs, err := collect(g, js)
			if err != nil {
				return nil, err
			}
			out[name] = rs
		}
		return out, nil
	}
	for _, name := range subset {
		results, err := collectMap(specJobs[name])
		if err != nil {
			return nil, err
		}
		phaseRows(t, spec.ByName(name)[0].Name(), results)
	}
	pgResults, err := collectMap(pgJobs)
	if err != nil {
		return nil, err
	}
	phaseRows(t, "pgbench", pgResults)
	qpsResults, err := collectMap(qpsJobs)
	if err != nil {
		return nil, err
	}
	phaseRows(t, "gRPC QPS", qpsResults)
	t.AddNote("gRPC QPS CHERIvoke is absent, as in the paper")
	return t, nil
}

// table2Build reproduces Table 2: Reloaded revocation-rate statistics for
// the representative subset.
func table2Build(o Options, g Getter) (*harness.Table, error) {
	cfg := o.SpecCfg
	pgCfg, qpsCfg := fig9Scales(o)
	t := &harness.Table{
		Title: "Table 2: Reloaded revocation rate statistics",
		Header: []string{"benchmark", "meanAlloc(MiB)", "sumFreed(MiB)", "F:A",
			"revocations", "rev/sec"},
	}
	cond := harness.Condition{Name: "Reloaded", Shimmed: true, Strategy: revoke.Reloaded, RevokerCores: []int{2}}
	subset := []string{"xalancbmk", "astar", "omnetpp", "hmmer", "gobmk"}
	specJobs := make([][]Job, len(subset))
	for i, name := range subset {
		specJobs[i] = repeatJobs(SpecWorkload(spec.ByName(name)[0].Name()), cond, cfg, o.Reps, harness.RepeatStride)
		g.Prefetch(specJobs[i])
	}
	pgJobs := repeatJobs(PgbenchWorkload(3000), cond, pgCfg, o.Reps, harness.RepeatStride)
	g.Prefetch(pgJobs)
	qpsCond := cond
	qpsCond.RevokerCores = nil
	qpsJobs := repeatJobs(QPSWorkload(1_000_000_000, 100_000_000), qpsCond, qpsCfg, o.Reps, strideQPS2)
	g.Prefetch(qpsJobs)

	addRow := func(name string, rs []*harness.Result) {
		var alloc, freed, revs, revPerSec metrics.Samples
		for _, r := range rs {
			if r.Quar.LiveAtTriggerCount > 0 {
				alloc.Add(float64(r.Quar.LiveAtTriggerSum) / float64(r.Quar.LiveAtTriggerCount))
			}
			freed.AddU(r.Quar.TotalQuarantined)
			revs.Add(float64(len(r.Epochs)))
			revPerSec.Add(float64(len(r.Epochs)) / r.Seconds(r.WallCycles))
		}
		meanAllocMiB := 0.0
		if alloc.N() > 0 {
			meanAllocMiB = alloc.Mean() / (1 << 20)
		}
		fa := 0.0
		if alloc.N() > 0 && alloc.Mean() > 0 {
			fa = freed.Mean() / alloc.Mean()
		}
		t.AddRow(name, f2(meanAllocMiB), f1(freed.Mean()/(1<<20)), f1(fa),
			f1(revs.Mean()), f2(revPerSec.Mean()))
	}
	for i, name := range subset {
		rs, err := collect(g, specJobs[i])
		if err != nil {
			return nil, err
		}
		addRow(spec.ByName(name)[0].Name(), rs)
	}
	rs, err := collect(g, pgJobs)
	if err != nil {
		return nil, err
	}
	addRow("pgbench", rs)
	qrs, err := collect(g, qpsJobs)
	if err != nil {
		return nil, err
	}
	addRow("gRPC QPS", qrs)
	t.AddNote("footprints scaled by 1/64 (pgbench 1/8) and churn by a further 1/8; F:A orderings are preserved, absolute rev/sec compresses (see EXPERIMENTS.md)")
	return t, nil
}

// heapscaleBuild builds the heap-scale axis (not a paper figure): a
// million-allocation, GB-scale heap (at scale 1) under the three sweeping
// strategies, reporting wall, total-CPU and peak-RSS overheads plus the
// revocation count. This is the extent-stress companion to the rate-stress
// SPEC grid — the regime where sweep and allocation costs are dominated by
// how *much* memory is live rather than how fast it churns.
func heapscaleBuild(o Options, g Getter) (*harness.Table, error) {
	w := heapscale.New(1<<20, 1<<18)
	cfg := o.SpecCfg
	if cfg.Scale == 0 {
		cfg.Scale = 64
	}
	if mf := w.MaxFrames(cfg.Scale); mf > cfg.Machine.MaxFrames {
		cfg.Machine.MaxFrames = mf
	}
	wref := HeapScaleWorkload(w.LiveAllocs, w.ChurnOps)
	conds := append([]harness.Condition{harness.Baseline()}, harness.SweepConditions()...)
	grids := make([][]Job, len(conds))
	for i, c := range conds {
		grids[i] = repeatJobs(wref, c, cfg, o.Reps, harness.RepeatStride)
		g.Prefetch(grids[i])
	}
	var base []*harness.Result
	t := &harness.Table{
		Title:  "Heap scale: million-allocation heap overheads vs CHERI baseline",
		Header: []string{"condition", "wall", "totalCPU", "peakRSS", "revocations"},
	}
	for i, c := range conds {
		rs, err := collect(g, grids[i])
		if err != nil {
			return nil, err
		}
		if i == 0 {
			base = rs
			t.AddRow("Baseline", "--", "--",
				fmt.Sprintf("%.1fMiB", harness.MeanRSS(rs)*4096/(1<<20)), "--")
			continue
		}
		var revs metrics.Samples
		for _, r := range rs {
			revs.Add(float64(len(r.Epochs)))
		}
		t.AddRow(c.Name,
			pct(metrics.Overhead(harness.MeanWall(rs), harness.MeanWall(base))),
			pct(metrics.Overhead(harness.MeanCPU(rs), harness.MeanCPU(base))),
			f3(metrics.Ratio(harness.MeanRSS(rs), harness.MeanRSS(base))),
			f1(revs.Mean()))
	}
	t.AddNote("full scale is 2^20 live allocations (~1 GiB heap); the run divides by Scale (%d here)", cfg.Scale)
	return t, nil
}
