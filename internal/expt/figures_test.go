package expt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/metrics"
)

// tinyOpts keeps figure smoke tests fast: one rep, SPEC at 1/512 scale,
// pgbench at 1/64 with 300 transactions, short gRPC windows.
func tinyOpts() Options {
	o := DefaultOptions()
	o.Reps = 1
	o.SpecCfg.Scale = 512
	o.PgCfg.Scale = 64
	o.Txs = 300
	o.Measure = 100_000_000
	o.Warmup = 10_000_000
	return o
}

// expectRows asserts the table has a row starting with each given name and
// that every row has as many cells as the header.
func expectRows(t *testing.T, tb *harness.Table, names ...string) {
	t.Helper()
	for _, row := range tb.Rows {
		if len(row) != len(tb.Header) {
			t.Errorf("row %v has %d cells, header has %d", row, len(row), len(tb.Header))
		}
	}
	for _, n := range names {
		found := false
		for _, row := range tb.Rows {
			if row[0] == n {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("table %q missing row %q:\n%s", tb.Title, n, tb)
		}
	}
}

// leadingFloat extracts the numeric prefix of a cell like "12.3MiB".
func leadingFloat(t *testing.T, s string) float64 {
	t.Helper()
	end := 0
	for end < len(s) && (s[end] == '.' || s[end] == '-' || (s[end] >= '0' && s[end] <= '9')) {
		end++
	}
	v, err := strconv.ParseFloat(s[:end], 64)
	if err != nil {
		t.Fatalf("cell %q has no leading float: %v", s, err)
	}
	return v
}

func TestFiguresRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, f := range Figures() {
		if f.ID == "" || f.Title == "" || f.Build == nil {
			t.Fatalf("incomplete figure entry %+v", f)
		}
		if ids[f.ID] {
			t.Fatalf("duplicate figure id %q", f.ID)
		}
		ids[f.ID] = true
		got, ok := ByID(f.ID)
		if !ok || got.ID != f.ID {
			t.Fatalf("ByID(%q) = %v, %v", f.ID, got, ok)
		}
	}
	for _, want := range []string{"fig1", "fig9", "table1", "table2"} {
		if !ids[want] {
			t.Fatalf("registry missing %q", want)
		}
	}
	if _, ok := ByID("fig99"); ok {
		t.Fatal("ByID accepted an unknown id")
	}
	if _, err := Generate("fig99", DefaultOptions(), nil); err == nil {
		t.Fatal("Generate accepted an unknown id")
	}
}

func TestFig1Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test")
	}
	tb, err := Generate("fig1", tinyOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, tb, "astar", "bzip2", "gobmk", "hmmer", "libquantum", "omnetpp", "sjeng", "xalancbmk")
	if len(tb.Header) != 4 {
		t.Fatalf("header = %v", tb.Header)
	}
}

func TestFig2Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test")
	}
	tb, err := Generate("fig2", tinyOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, tb, "astar", "gobmk", "hmmer", "libquantum", "omnetpp", "xalancbmk")
	for _, row := range tb.Rows {
		if row[0] == "bzip2" || row[0] == "sjeng" {
			t.Fatalf("non-engaging benchmark %s in Figure 2", row[0])
		}
	}
}

func TestFig3Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test")
	}
	tb, err := Generate("fig3", tinyOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tb.Rows))
	}
	// Sorted descending by baseline RSS.
	prev := 1e18
	for _, row := range tb.Rows {
		v := leadingFloat(t, row[1])
		if v > prev {
			t.Fatalf("rows not sorted by baseline RSS: %v", tb.Rows)
		}
		prev = v
	}
}

func TestFig4Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test")
	}
	tb, err := Generate("fig4", tinyOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, tb, "omnetpp", "xalancbmk")
	if len(tb.Notes) == 0 || !strings.Contains(tb.Notes[0], "median") {
		t.Fatal("missing Rel/Cor median note")
	}
}

func TestFig5To7Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test")
	}
	o := tinyOpts()
	// The three pgbench artifacts share one memoized matrix when built on
	// the same pool.
	p := NewPool(PoolConfig{Workers: 1})
	tb5, err := Generate("fig5", o, p)
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, tb5, "Reloaded", "Cornucopia", "CHERIvoke", "Paint+sync")
	tb6, err := Generate("fig6", o, p)
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, tb6, "Reloaded", "Paint+sync")
	tb7, err := Generate("fig7", o, p)
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, tb7, "Reloaded", "CHERIvoke")
	if len(tb7.Notes) < 3 {
		t.Fatalf("Figure 7 notes = %v", tb7.Notes)
	}
	if st := p.Stats(); st.Deduped == 0 {
		t.Fatalf("figures 5-7 shared no jobs: %+v", st)
	}
}

func TestTable1Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test")
	}
	tb, err := Generate("table1", tinyOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (3 rates + unscheduled)", len(tb.Rows))
	}
	expectRows(t, tb, "unscheduled")
}

func TestFig8Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test")
	}
	tb, err := Generate("fig8", tinyOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, tb, "Baseline(ms)", "Reloaded", "Cornucopia", "Paint+sync")
	for _, row := range tb.Rows {
		if row[0] == "CHERIvoke" {
			t.Fatal("CHERIvoke must be excluded from Figure 8")
		}
	}
}

func TestFig9AndTable2Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test")
	}
	tb, err := Generate("fig9", tinyOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, tb, "xalancbmk", "pgbench", "gRPC QPS")
	// Each SPEC benchmark contributes six phase rows.
	count := 0
	for _, row := range tb.Rows {
		if row[0] == "xalancbmk" {
			count++
		}
	}
	if count != 6 {
		t.Fatalf("xalancbmk phase rows = %d, want 6", count)
	}
	t2, err := Generate("table2", tinyOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, t2, "xalancbmk", "pgbench", "gRPC QPS")
}

// TestWorkerCountInvariance is the orchestrator's core guarantee: the same
// figure built sequentially and on eight workers renders byte-identically,
// because every job is deterministic per seed and the fold order is fixed.
func TestWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test")
	}
	o := tinyOpts()
	o.Reps = 2 // exercise the per-rep seed derivation too
	for _, id := range []string{"fig5", "fig8"} {
		seq, err := Generate(id, o, NewPool(PoolConfig{Workers: 1}))
		if err != nil {
			t.Fatal(err)
		}
		par, err := Generate(id, o, NewPool(PoolConfig{Workers: 8}))
		if err != nil {
			t.Fatal(err)
		}
		if seq.String() != par.String() {
			t.Errorf("%s differs across worker counts:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
				id, seq, par)
		}
	}
}

// TestGenerateResumesFromManifest rebuilds a real figure from a manifest
// alone: the second pool executes nothing and the rendered table is
// byte-identical, because float64 survives the JSON round-trip exactly.
func TestGenerateResumesFromManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test")
	}
	o := tinyOpts()
	path := filepath.Join(t.TempDir(), "manifest.jsonl")

	m1, err := OpenManifestFor(path, ManifestMeta{Tool: "sweep", Grid: "fig5"})
	if err != nil {
		t.Fatal(err)
	}
	p1 := NewPool(PoolConfig{Workers: 2, Manifest: m1})
	first, err := Generate("fig5", o, p1)
	if err != nil {
		t.Fatal(err)
	}
	if st := p1.Stats(); st.Executed == 0 || st.Cached != 0 {
		t.Fatalf("first pass stats = %+v", st)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := OpenManifestFor(path, ManifestMeta{Tool: "sweep", Grid: "fig5"})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	p2 := NewPool(PoolConfig{Workers: 2, Manifest: m2})
	second, err := Generate("fig5", o, p2)
	if err != nil {
		t.Fatal(err)
	}
	st := p2.Stats()
	if st.Executed != 0 {
		t.Fatalf("resume executed %d job(s), want 0: %+v", st.Executed, st)
	}
	if st.Cached == 0 {
		t.Fatalf("resume served nothing from the manifest: %+v", st)
	}
	if first.String() != second.String() {
		t.Errorf("resumed table differs:\n--- fresh ---\n%s\n--- resumed ---\n%s", first, second)
	}
}

// TestEmptyCellGuards pins the renderers' behavior when a figure cell
// holds no samples (all jobs failed, or a condition recorded no epochs):
// "--" cells and a fallback clock rate instead of a panic.
func TestEmptyCellGuards(t *testing.T) {
	empty := &metrics.Samples{}
	if got := pctCell(empty, 50, 2.5e6); got != "--" {
		t.Errorf("pctCell(empty) = %q, want --", got)
	}
	full := &metrics.Samples{}
	full.Add(2.5e6) // one sample of exactly 1 ms at 2.5 GHz
	if got := pctCell(full, 50, 2.5e6); got != "1.000" {
		t.Errorf("pctCell(full) = %q, want 1.000", got)
	}
	if hz := cyclesPerMs(nil); hz != 2.5e6 {
		t.Errorf("cyclesPerMs(nil) = %v, want default 2.5e6", hz)
	}
	if hz := cyclesPerMs([]*harness.Result{{HzGHz: 3}}); hz != 3e6 {
		t.Errorf("cyclesPerMs = %v, want 3e6", hz)
	}
}

// TestBuildAggregatesEmptyLat exercises BuildAggregates over a JobResult
// whose latency set is empty; the min/median/max columns must come back
// zero rather than panicking.
func TestBuildAggregatesEmptyLat(t *testing.T) {
	aggs := BuildAggregates([]*JobResult{{Workload: "w", Condition: "c"}})
	if len(aggs) == 0 {
		t.Fatal("no aggregates")
	}
	for _, a := range aggs {
		if a.Workload != "w" || a.Condition != "c" {
			t.Errorf("unexpected cell %+v", a)
		}
	}
}

// fig9SeedOneKeys is the sha256 of the sorted job keys, one a line, that
// Figure 9 and Table 2 plan at seed 1 with DefaultOptions and one rep.
const fig9SeedOneKeys = "a7ddad14d27c3253c532ad0c1448958179e124f8e267fa2b2c4692973204aed8"

// TestFig9SeedsFollowOptions pins that Figure 9's and Table 2's pgbench
// and gRPC jobs run at the options' seed, like their SPEC jobs: planned at
// seed 5, as `cmd/sweep -figures fig9,table2 -dry-run -seed 5 -reps 1`
// plans them, every job is at seed 5, and at seed 1 the job keys are
// those recorded before pgbench and gRPC followed the seed.
func TestFig9SeedsFollowOptions(t *testing.T) {
	plan := func(seed int64) []PlannedJob {
		o := DefaultOptions()
		o.Reps = 1
		o.SpecCfg.Seed, o.PgCfg.Seed, o.QPSCfg.Seed = seed, seed, seed
		p := NewPlanner()
		for _, id := range []string{"fig9", "table2"} {
			f, _ := ByID(id)
			if _, err := f.Build(o, p); err != nil {
				t.Fatalf("%s dry-run build: %v", id, err)
			}
		}
		return p.Jobs()
	}
	kinds := map[string]int{}
	for _, j := range plan(5) {
		kinds[j.Workload.Kind]++
		if j.Seed != 5 {
			t.Errorf("%s under %s planned at seed %d, want 5", j.Workload, j.Cond, j.Seed)
		}
	}
	for _, k := range []string{"spec", "pgbench", "qps"} {
		if kinds[k] == 0 {
			t.Errorf("no %s job planned", k)
		}
	}
	h := sha256.New()
	for _, j := range plan(1) {
		fmt.Fprintln(h, j.Key)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fig9SeedOneKeys {
		t.Errorf("seed-1 job keys hash to %s, recorded %s", got, fig9SeedOneKeys)
	}
}
