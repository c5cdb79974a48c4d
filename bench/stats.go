package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricDef names one metric. BENCHMARK.json declares the same names,
// units and directions (checked by TestSpecMatchesCode); it alone holds
// the end-to-end bounds.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. failed_frac is reported beside them but is not declared in
// BENCHMARK.json, whose metrics must never read 0; the result line's
// attempted and failed counts carry it instead.
var endToEnd = []metricDef{
	{"host_s", "s", "lower"},
	{"sim_mcps", "Mcycles/s", "higher"},
	{"peak_rss_mib", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the single-layer metrics of the traced run.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{l + ".host_share", "share", "lower"})
	}
	return append(out, []metricDef{
		{"kernel.sweep.host_ns_per_cap", "ns", "lower"},
		{"alloc.host_ns_per_op", "ns", "lower"},
		{"harness.run_s.p50", "s", "lower"},
		{"expt.job_ms.p50", "ms", "lower"},
		{"expt.job_ms.p90", "ms", "lower"},
		{"expt.job_ms.max", "ms", "lower"},
		{"expt.queue_wait_ms.p50", "ms", "lower"},
		{"expt.queue_wait_ms.p90", "ms", "lower"},
		{"expt.util", "share", "higher"},
		{"expt.tail_s", "s", "lower"},
		{"expt.dedup_ratio", "share", "higher"},
		{"bus.dram_tx", "count", "lower"},
		{"vm.tlb_refills", "count", "lower"},
		{"kernel.barrier_faults", "count", "lower"},
		{"alloc.ops", "count", "lower"},
		{"quarantine.blocks", "count", "lower"},
		{"revoke.epochs", "count", "lower"},
		{"revoke.caps_visited", "count", "lower"},
		{"revoke.revoked_per_visited", "share", "higher"},
		{"revoke.stw_max_cycles", "cycles", "lower"},
		{"simcycles.idle_share", "share", "lower"},
		{"trace.overhead", "share", "lower"},
	}...)
}()

// percentile interpolates linearly between the closest ranks of the
// sorted values (p in [0, 100]); an empty input gives 0.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// summary is one end-to-end metric over a run's samples.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	P25    float64   `json:"p25"`
	P75    float64   `json:"p75"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(unit string, values []float64) summary {
	return summary{
		Unit: unit, N: len(values), Values: values,
		Median: percentile(values, 50), P25: percentile(values, 25), P75: percentile(values, 75),
	}
}

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) does (its default, exclusive method),
// so the comparator's spread is the one the README's noise tables report.
// It needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m-j*4) / 4
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return q(1), q(3)
}

// minRuns is the fewest runs per side the comparator judges: quartiles of
// fewer values say nothing about the spread between runs.
const minRuns = 4

// verdict judges change b against parent a for one metric. Each value is
// one run's median, so the spread is the one between runs, which includes
// the host's drift over minutes that no single run sees. Following the
// choosing-metrics rules: with fewer than minRuns runs a side, or a parent
// spread (interquartile range over median) wider than the bound, the
// metric is unresolved, unless every run of b beats every run of a; a
// median worse by more than the bound is worse; a gain needs at least ten
// pairs of runs (paired in order), nine tenths of them won, and a median
// difference larger than the parent's interquartile range; anything else
// is the same.
func verdict(a, b []float64, better string, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved"
	}
	sign := 1.0 // lower is better: a positive change is a worsening
	if better == "higher" {
		sign = -1
	}
	beats := func(x, y float64) bool { return sign*(x-y) < 0 }
	beatsAll := func() string {
		for _, x := range b {
			for _, y := range a {
				if !beats(x, y) {
					return "unresolved"
				}
			}
		}
		return "better"
	}
	med := percentile(a, 50)
	if len(a) < minRuns || len(b) < minRuns || med == 0 {
		return beatsAll()
	}
	q1, q3 := quartiles(a)
	iqr := q3 - q1
	if iqr/math.Abs(med) > bound {
		return beatsAll()
	}
	worse := sign * (percentile(b, 50) - med) / math.Abs(med)
	if worse > bound {
		return "worse"
	}
	pairs := min(len(a), len(b))
	wins := 0
	for i := 0; i < pairs; i++ {
		if beats(b[i], a[i]) {
			wins++
		}
	}
	if pairs >= 10 && wins*10 >= pairs*9 && -worse*math.Abs(med) > iqr {
		return "better"
	}
	return "same"
}

// readRuns reads a result file: one or more result documents one after
// another, as `cat` of several results.json files leaves them.
func readRuns(path string) ([]resultDoc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs []resultDoc
	dec := json.NewDecoder(f)
	for {
		var d resultDoc
		err := dec.Decode(&d)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		docs = append(docs, d)
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("%s: no result documents", path)
	}
	return docs, nil
}

// byWorkload groups the runs' results by workload, in order of first
// appearance.
func byWorkload(docs []resultDoc) (names []string, runs map[string][]workloadResult) {
	runs = map[string][]workloadResult{}
	for _, d := range docs {
		for _, wr := range d.Workloads {
			if _, ok := runs[wr.Name]; !ok {
				names = append(names, wr.Name)
			}
			runs[wr.Name] = append(runs[wr.Name], wr)
		}
	}
	return names, runs
}

// runMedians is one metric's median in each run.
func runMedians(runs []workloadResult, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if s, ok := r.EndToEnd[metric]; ok && s.N > 0 {
			out = append(out, s.Median)
		}
	}
	return out
}

// compare applies BENCHMARK.json's bounds to every workload × end-to-end
// metric pair of two result files (a is the parent), each holding one or
// more runs, and reports whether any pair got worse. A workload with a
// failed operation in any change run is worse on failed_frac, whose bound
// is zero.
func compare(w io.Writer, specPath, aPath, bPath string) (worse bool, err error) {
	var spec benchSpec
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	a, err := readRuns(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRuns(bPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "parent %s: %d runs (%s, nproc %d)\nchange %s: %d runs (%s, nproc %d)\n",
		aPath, len(a), a[0].Host.Go, a[0].Host.NProc, bPath, len(b), b[0].Host.Go, b[0].Host.NProc)
	fmt.Fprintf(w, "%-12s %-13s %4s %12s %25s %4s %12s %8s %6s  %s\n",
		"workload", "metric", "n", "parent", "[q1 .. q3]", "n", "change", "delta", "bound", "verdict")
	names, ra := byWorkload(a)
	_, rb := byWorkload(b)
	for _, name := range names {
		for _, m := range spec.EndToEnd {
			va, vb := runMedians(ra[name], m.Name), runMedians(rb[name], m.Name)
			v := verdict(va, vb, m.Better, m.Bound)
			worse = worse || v == "worse"
			ma, mb := percentile(va, 50), percentile(vb, 50)
			q1, q3, delta := ma, ma, "--"
			if len(va) >= 2 {
				q1, q3 = quartiles(va)
			}
			if ma != 0 && len(vb) > 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(mb-ma)/ma)
			}
			fmt.Fprintf(w, "%-12s %-13s %4d %12.4g %25s %4d %12.4g %8s %5.0f%%  %s\n", name, m.Name, len(va), ma,
				fmt.Sprintf("[%.4g .. %.4g]", q1, q3), len(vb), mb, delta, 100*m.Bound, v)
		}
		failedA, failedB := 0, 0
		for _, r := range ra[name] {
			failedA += r.Failed
		}
		for _, r := range rb[name] {
			failedB += r.Failed
		}
		if failedB > 0 {
			worse = true
			fmt.Fprintf(w, "%-12s %-13s %4s %12d %25s %4s %12d %8s %6s  worse\n", name, "failed", "", failedA, "", "", failedB, "", "+0")
		}
	}
	return worse, nil
}

// lineMetric is one metric of the result line.
type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

// metricKey prefixes a metric with its workload when several ran.
func metricKey(workload, metric string, several bool) string {
	if several {
		return workload + "." + metric
	}
	return metric
}

// fmtRow renders one metric for the human report.
func fmtRow(name string, s summary) string {
	return fmt.Sprintf("  %-30s %12.6g %12.6g %12.6g %4d  %s", name, s.Median, s.P25, s.P75, s.N, s.Unit)
}
