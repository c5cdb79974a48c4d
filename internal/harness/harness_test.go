package harness

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/revoke"
	"repro/internal/workload/pgbench"
	"repro/internal/workload/spec"
)

// fastCfg shrinks footprints so integration tests stay quick.
func fastCfg() Config {
	cfg := DefaultConfig()
	cfg.Scale = 256
	return cfg
}

func TestRunBaselineProducesMetrics(t *testing.T) {
	p := spec.ByName("hmmer")[1] // retro: the smallest engaging profile
	r, err := Run(p, Baseline(), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.WallCycles == 0 || r.CPUCycles == 0 || r.DRAMTotal == 0 {
		t.Fatalf("empty metrics: %+v", r)
	}
	if r.PeakRSSPages == 0 {
		t.Fatal("no RSS recorded")
	}
	if len(r.Epochs) != 0 {
		t.Fatal("baseline ran revocation epochs")
	}
	if r.Heap.Allocs == 0 || r.Heap.Frees == 0 {
		t.Fatal("no allocator activity")
	}
}

func TestRunShimmedTriggersRevocation(t *testing.T) {
	p := spec.ByName("hmmer")[1]
	for _, c := range SweepConditions() {
		r, err := Run(p, c, fastCfg())
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Epochs) == 0 {
			t.Fatalf("%s: no revocation epochs", c.Name)
		}
		if r.Quar.Triggers == 0 {
			t.Fatalf("%s: policy never triggered", c.Name)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	p := spec.ByName("gobmk")[1]
	cfg := fastCfg()
	r1, err := Run(p, StandardConditions()[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(p, StandardConditions()[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.WallCycles != r2.WallCycles || r1.CPUCycles != r2.CPUCycles ||
		r1.DRAMTotal != r2.DRAMTotal || len(r1.Epochs) != len(r2.Epochs) {
		t.Fatalf("nondeterministic runs:\n%+v\n%+v", r1, r2)
	}
}

// TestRepeatVariesSeeds pins that repeated runs, seeded RepeatStride
// apart, do not all simulate the same run.
func TestRepeatVariesSeeds(t *testing.T) {
	p := spec.ByName("hmmer")[1]
	var rs []*Result
	for i := 0; i < 3; i++ {
		cfg := fastCfg()
		cfg.Seed += int64(i) * RepeatStride
		r, err := Run(p, Baseline(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	if rs[0].WallCycles == rs[1].WallCycles && rs[1].WallCycles == rs[2].WallCycles {
		t.Fatal("all repeats identical; seeds not varied")
	}
}

// TestShapeSPEC asserts the headline shape of the paper on one
// memory-intensive benchmark: wall-clock Reloaded ≈ Cornucopia < CHERIvoke;
// DRAM traffic Reloaded < Cornucopia; Reloaded's stop-the-world pauses are
// orders of magnitude below the others'.
func TestShapeSPEC(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test runs a full benchmark matrix")
	}
	p := spec.ByName("xalancbmk")[0]
	cfg := DefaultConfig()
	cfg.Scale = 256
	res := map[string]*Result{}
	for _, c := range append([]Condition{Baseline()}, SweepConditions()...) {
		r, err := Run(p, c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res[c.Name] = r
	}
	base := res["Baseline"]
	rel, cor, chv := res["Reloaded"], res["Cornucopia"], res["CHERIvoke"]

	relOv := metrics.Overhead(float64(rel.WallCycles), float64(base.WallCycles))
	corOv := metrics.Overhead(float64(cor.WallCycles), float64(base.WallCycles))
	chvOv := metrics.Overhead(float64(chv.WallCycles), float64(base.WallCycles))
	if relOv <= 0 || corOv <= 0 || chvOv <= 0 {
		t.Fatalf("overheads not positive: rel=%.1f cor=%.1f chv=%.1f", relOv, corOv, chvOv)
	}
	if chvOv <= corOv || chvOv <= relOv {
		t.Errorf("CHERIvoke (%.1f%%) should exceed concurrent strategies (rel %.1f%%, cor %.1f%%)",
			chvOv, relOv, corOv)
	}
	if relOv > 2*corOv+5 {
		t.Errorf("Reloaded wall overhead %.1f%% should be comparable to Cornucopia's %.1f%%", relOv, corOv)
	}
	if rel.DRAMTotal >= cor.DRAMTotal {
		t.Errorf("Reloaded DRAM %d should be below Cornucopia's %d", rel.DRAMTotal, cor.DRAMTotal)
	}
	stwMed := func(r *Result) float64 {
		s := &metrics.Samples{}
		for _, e := range r.Epochs {
			s.AddU(e.STWCycles)
		}
		return s.Median()
	}
	if stwMed(rel)*5 > stwMed(cor) {
		t.Errorf("Reloaded STW median %.0f should be ≪ Cornucopia's %.0f", stwMed(rel), stwMed(cor))
	}
	if stwMed(cor) >= stwMed(chv) {
		t.Errorf("Cornucopia STW %.0f should be < CHERIvoke's %.0f", stwMed(cor), stwMed(chv))
	}
	if rel.Proc.GenFaults == 0 {
		t.Error("Reloaded took no load-barrier faults")
	}
	if cor.Proc.GenFaults != 0 || chv.Proc.GenFaults != 0 {
		t.Error("non-Reloaded strategies took load-barrier faults")
	}
}

// TestShapePgbench asserts the tail-latency story: the conditions are
// similar at the median and CHERIvoke is worst at the 99th percentile.
func TestShapePgbench(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test runs a transaction matrix")
	}
	cfg := PgbenchConfig()
	res := map[string]*Result{}
	for _, c := range StandardConditions() {
		r, err := Run(pgbench.New(2500), c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res[c.Name] = r
	}
	p50 := func(n string) float64 { return res[n].Lat().Percentile(50) }
	p99 := func(n string) float64 { return res[n].Lat().Percentile(99) }
	for _, n := range []string{"Reloaded", "Cornucopia", "CHERIvoke"} {
		if r := p50(n) / p50("Paint+sync"); r > 1.25 {
			t.Errorf("%s median %.2fx Paint+sync's; conditions should be similar at p50", n, r)
		}
	}
	if p99("CHERIvoke") <= p99("Reloaded") {
		t.Errorf("CHERIvoke p99 %.0f should exceed Reloaded's %.0f", p99("CHERIvoke"), p99("Reloaded"))
	}
}

func TestColoringConditionRuns(t *testing.T) {
	p := spec.ByName("hmmer")[1]
	r, err := Run(p, ColoringCondition(revoke.Reloaded), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(p, StandardConditions()[0], fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.Quar.TotalQuarantined*4 > plain.Quar.TotalQuarantined {
		t.Errorf("coloring quarantined %d, plain %d; expected large reduction",
			r.Quar.TotalQuarantined, plain.Quar.TotalQuarantined)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "bb"}}
	tb.AddRow("x", "y")
	tb.AddRow("longer", "z")
	tb.AddNote("hello %d", 7)
	s := tb.String()
	for _, want := range []string{"== T ==", "longer", "note: hello 7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(s, "\n")
	if len(lines) < 6 {
		t.Fatalf("short rendering:\n%s", s)
	}
}

func TestConditionSets(t *testing.T) {
	std := StandardConditions()
	if len(std) != 4 {
		t.Fatalf("standard conditions = %d", len(std))
	}
	for _, c := range std {
		if !c.Shimmed {
			t.Fatalf("%s not shimmed", c.Name)
		}
	}
	if len(SweepConditions()) != 3 {
		t.Fatal("sweep conditions != 3")
	}
	qc := QPSConditions()
	for _, c := range qc {
		if c.Strategy == revoke.CHERIvoke {
			t.Fatal("QPS conditions include CHERIvoke")
		}
		if c.RevokerCores != nil {
			t.Fatal("QPS revoker pinned")
		}
	}
}
