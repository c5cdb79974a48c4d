// Package repro's benchmark harness: ablations for the design choices
// DESIGN.md calls out (§3.1's two-pass Cornucopia, §7's multi-worker
// sweep, coloring, quarantine policy and always-trap PTEs). Nothing else
// computes them; run `go test -bench Ablation -benchmem`. The paper's
// figures and tables are regenerated by cmd/sweep.
package repro

import (
	"strconv"
	"testing"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/quarantine"
	"repro/internal/revoke"
	"repro/internal/workload/spec"
)

// benchScale shrinks SPEC footprints further than cmd/sweep's default
// (1/128 instead of 1/64) so the ablations stay tractable.
const benchScale = 128

func specCfg() harness.Config {
	cfg := harness.SpecConfig()
	cfg.Scale = benchScale
	return cfg
}

// BenchmarkAblationMultiRevokers measures §7.1: splitting the background
// sweep across worker threads shortens the concurrent phase.
func BenchmarkAblationMultiRevokers(b *testing.B) {
	p := spec.ByName("omnetpp")[0]
	for i := 0; i < b.N; i++ {
		conc := map[int]float64{}
		for _, workers := range []int{1, 2} {
			cond := harness.Condition{
				Name: "Reloaded", Shimmed: true, Strategy: revoke.Reloaded,
				RevokerCores: []int{1, 2}, Workers: workers,
			}
			r, err := harness.Run(p, cond, specCfg())
			if err != nil {
				b.Fatal(err)
			}
			s := &metrics.Samples{}
			for _, e := range r.Epochs {
				s.AddU(e.ConcurrentCycles)
			}
			conc[workers] = s.Median() / (r.HzGHz * 1e6)
		}
		b.ReportMetric(conc[1], "concurrent_med_ms_1worker")
		b.ReportMetric(conc[2], "concurrent_med_ms_2workers")
		b.ReportMetric(conc[1]/conc[2], "speedup")
	}
}

// BenchmarkAblationColoring measures §7.3: the coloring composition's
// reduction in quarantine pressure and epochs on a churn-heavy workload.
func BenchmarkAblationColoring(b *testing.B) {
	p := spec.ByName("omnetpp")[0]
	for i := 0; i < b.N; i++ {
		plain, err := harness.Run(p, harness.StandardConditions()[0], specCfg())
		if err != nil {
			b.Fatal(err)
		}
		colored, err := harness.Run(p, harness.ColoringCondition(revoke.Reloaded), specCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(plain.Epochs)), "epochs_plain")
		b.ReportMetric(float64(len(colored.Epochs)), "epochs_colored")
		b.ReportMetric(float64(plain.Quar.TotalQuarantined)/float64(max64(colored.Quar.TotalQuarantined, 1)),
			"quarantine_pressure_reduction_x")
	}
}

// BenchmarkAblationQuarantinePolicy sweeps §7.2: the quarantine fraction
// trades memory overhead against revocation frequency.
func BenchmarkAblationQuarantinePolicy(b *testing.B) {
	p := spec.ByName("hmmer")[0]
	for i := 0; i < b.N; i++ {
		for _, frac := range []float64{0.125, 0.25, 0.5} {
			cond := harness.Condition{
				Name: "Reloaded", Shimmed: true, Strategy: revoke.Reloaded,
				RevokerCores: []int{2},
				Policy: quarantine.Policy{
					HeapFraction: frac, MinBytes: (8 << 20) / benchScale, BlockFactor: 2,
				},
			}
			r, err := harness.Run(p, cond, specCfg())
			if err != nil {
				b.Fatal(err)
			}
			tag := strconv.FormatFloat(frac, 'g', -1, 64)
			b.ReportMetric(float64(len(r.Epochs)), "epochs_frac"+tag)
			b.ReportMetric(float64(r.PeakRSSPages)*4096/(1<<20), "rss_mib_frac"+tag)
		}
	}
}

// BenchmarkAblationTwoPass reproduces the §3.1 observation that iterating
// Cornucopia's concurrent pass barely shrinks the stop-the-world phase
// while increasing total work.
func BenchmarkAblationTwoPass(b *testing.B) {
	p := spec.ByName("xalancbmk")[0]
	for i := 0; i < b.N; i++ {
		stw := map[string]float64{}
		work := map[string]float64{}
		for _, strat := range []revoke.Strategy{revoke.Cornucopia, revoke.CornucopiaTwoPass} {
			cond := harness.Condition{Name: strat.String(), Shimmed: true,
				Strategy: strat, RevokerCores: []int{2}}
			r, err := harness.Run(p, cond, specCfg())
			if err != nil {
				b.Fatal(err)
			}
			s := &metrics.Samples{}
			var pages uint64
			for _, e := range r.Epochs {
				s.AddU(e.STWCycles)
				pages += e.PagesVisited
			}
			stw[strat.String()] = s.Median() / (r.HzGHz * 1e6)
			work[strat.String()] = float64(pages)
		}
		b.ReportMetric(stw["Cornucopia"], "stw_med_ms_1pass")
		b.ReportMetric(stw["Cornucopia-2pass"], "stw_med_ms_2pass")
		b.ReportMetric(work["Cornucopia-2pass"]/work["Cornucopia"], "work_ratio_2pass")
	}
}

// BenchmarkAblationAlwaysTrap measures the §7.6 PTE disposition: background
// page visits avoided on workloads with many capability-clean pages.
func BenchmarkAblationAlwaysTrap(b *testing.B) {
	p := spec.ByName("hmmer")[0] // data-heavy: most pages never hold caps
	for i := 0; i < b.N; i++ {
		visits := map[bool]float64{}
		wall := map[bool]float64{}
		for _, at := range []bool{false, true} {
			cond := harness.Condition{Name: "Reloaded", Shimmed: true,
				Strategy: revoke.Reloaded, RevokerCores: []int{2}, AlwaysTrap: at}
			r, err := harness.Run(p, cond, specCfg())
			if err != nil {
				b.Fatal(err)
			}
			var pages float64
			for _, e := range r.Epochs {
				pages += float64(e.PagesVisited)
			}
			visits[at] = pages
			wall[at] = r.Millis(r.WallCycles)
		}
		b.ReportMetric(visits[false], "pages_visited_plain")
		b.ReportMetric(visits[true], "pages_visited_alwaystrap")
		b.ReportMetric(wall[true]/wall[false], "wall_ratio")
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
