package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeLedger writes a cornucopia-hostbench/v1 document holding the given
// ns/op rows (in order) and returns its path. extra is spliced in as
// further top-level fields.
func writeLedger(t *testing.T, name string, rows [][2]any, extra string) string {
	t.Helper()
	var bs []string
	for _, r := range rows {
		bs = append(bs, fmt.Sprintf(`{"name": %q, "iters": 10, "ns_per_op": %v}`, r[0], r[1]))
	}
	doc := fmt.Sprintf(`{"schema": %q, "go": "go1.22", "goos": "linux", "goarch": "amd64", "gomaxprocs": 2,
  "benchmarks": [%s]%s}`, hostbenchSchema, strings.Join(bs, ", "), extra)
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runDiff runs obs diff and returns its verdict and output.
func runDiff(t *testing.T, args ...string) (bool, string) {
	t.Helper()
	var out strings.Builder
	ok, err := cmdDiff(args, &out)
	if err != nil {
		t.Fatalf("diff %v: %v", args, err)
	}
	return ok, out.String()
}

// rowOf returns the output line for benchmark name.
func rowOf(t *testing.T, out, name string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == name {
			return line
		}
	}
	t.Fatalf("no row for %s in:\n%s", name, out)
	return ""
}

func TestDiffFlagsRegressionBeyondThreshold(t *testing.T) {
	old := writeLedger(t, "old.json", [][2]any{{"SweepTags", 1000}, {"BusSweepMix", 500}}, "")
	slow := writeLedger(t, "new.json", [][2]any{{"SweepTags", 1200}, {"BusSweepMix", 500}}, "")
	ok, out := runDiff(t, "-max-regress", "10", old, slow)
	if ok {
		t.Fatalf("a 20%% slowdown passed a 10%% gate:\n%s", out)
	}
	if !strings.HasSuffix(rowOf(t, out, "SweepTags"), "REGRESSION") {
		t.Fatalf("slowed row not marked:\n%s", out)
	}
	if strings.Contains(rowOf(t, out, "BusSweepMix"), "REGRESSION") {
		t.Fatalf("unchanged row marked:\n%s", out)
	}
	if !strings.Contains(out, "diff: regression beyond the 10.0% threshold") {
		t.Fatalf("verdict line missing:\n%s", out)
	}
}

func TestDiffPassesWithinThreshold(t *testing.T) {
	old := writeLedger(t, "old.json", [][2]any{{"SweepTags", 1000}, {"BusSweepMix", 500}}, "")
	same := writeLedger(t, "new.json", [][2]any{{"SweepTags", 1090}, {"BusSweepMix", 300}}, "")
	ok, out := runDiff(t, old, same)
	if !ok || strings.Contains(out, "REGRESSION") {
		t.Fatalf("a 9%% slowdown and a speedup failed the default 10%% gate:\n%s", out)
	}
	if !strings.Contains(out, "diff: within the 10.0% threshold") {
		t.Fatalf("verdict line missing:\n%s", out)
	}
}

func TestDiffReportsNewAndGoneBenchmarks(t *testing.T) {
	old := writeLedger(t, "old.json", [][2]any{{"SweepTags", 1000}, {"HeapSweepFlat", 9000}}, "")
	cur := writeLedger(t, "new.json", [][2]any{{"SweepTags", 1000}, {"FleetSetupFast", 7000}}, "")
	ok, out := runDiff(t, old, cur)
	if !ok {
		t.Fatalf("added and removed rows failed the gate:\n%s", out)
	}
	if f := strings.Fields(rowOf(t, out, "FleetSetupFast")); f[len(f)-1] != "new" {
		t.Fatalf("added benchmark not reported new:\n%s", out)
	}
	if f := strings.Fields(rowOf(t, out, "HeapSweepFlat")); f[len(f)-1] != "gone" {
		t.Fatalf("removed benchmark not reported gone:\n%s", out)
	}
}

// TestDiffLoadsLedgerWithRatios pins that a ledger written before the
// speedup ratios were dropped, which still carries a "ratios" map, diffs
// against a current one.
func TestDiffLoadsLedgerWithRatios(t *testing.T) {
	parent := writeLedger(t, "parent.json", [][2]any{{"SweepTags", 1000}, {"SweepTagsWords", 20}},
		`, "ratios": {"sweep_kernel": {"baseline": "SweepTags", "contender": "SweepTagsWords", "speedup": 50}}`)
	cur := writeLedger(t, "new.json", [][2]any{{"SweepTags", 1000}, {"SweepTagsWords", 20}}, "")
	ok, out := runDiff(t, parent, cur)
	if !ok {
		t.Fatalf("identical rows failed:\n%s", out)
	}
	if strings.Contains(out, "RATIO") || strings.Contains(out, "sweep_kernel") {
		t.Fatalf("diff still reports ratios:\n%s", out)
	}
}
