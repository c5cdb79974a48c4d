package main

import (
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/metrics"
)

// TestFig9StripsSkipsUnplottableRows pins the Figure 9 table-to-strips
// fold: every benchmark gets a strip, every well-formed
// "min/p25/median/p75/max" cell becomes a labelled box, and "--" or
// malformed cells are skipped rather than drawn.
func TestFig9StripsSkipsUnplottableRows(t *testing.T) {
	tb := &harness.Table{}
	tb.AddRow("xalancbmk", "Reloaded", "stop-the-world", "0.01/0.02/0.03/0.04/0.05")
	tb.AddRow("xalancbmk", "Reloaded", "load-barrier faults", "--")
	tb.AddRow("xalancbmk", "Cornucopia", "stop-the-world", "1/2/3/4/5")
	tb.AddRow("xalancbmk", "CHERIvoke", "stop-the-world", "1/2/x/4/5")
	tb.AddRow("hmmer", "Cornucopia", "concurrent", "1/2/3")
	tb.AddRow("hmmer", "Reloaded", "concurrent", "0.5/1/1.5/2/9")
	out := fig9Strips(tb)

	for _, want := range []string{
		"xalancbmk\n", "hmmer\n",
		"Reloaded stop-the-world", "Cornucopia stop-the-world", "Reloaded concurrent",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("strips missing %q:\n%s", want, out)
		}
	}
	for _, skipped := range []string{"load-barrier faults", "CHERIvoke", "Cornucopia concurrent"} {
		if strings.Contains(out, skipped) {
			t.Errorf("strips drew the unplottable row %q:\n%s", skipped, out)
		}
	}
	if n := strings.Count(out, "M"); n != 3 {
		t.Errorf("drew %d median marks, want one per well-formed row (3):\n%s", n, out)
	}
}

// TestFig7CDFNamesEveryCondition pins that the Figure 7 plot carries a
// legend entry for each of the four revoking conditions.
func TestFig7CDFNamesEveryCondition(t *testing.T) {
	samples := map[string]*metrics.Samples{}
	for i, name := range []string{"Paint+sync", "CHERIvoke", "Cornucopia", "Reloaded"} {
		s := &metrics.Samples{}
		for v := 1; v <= 10; v++ {
			s.Add(float64(v * (i + 1)))
		}
		samples[name] = s
	}
	out := fig7CDF(samples)
	if !strings.HasPrefix(out, "Figure 7: pgbench per-transaction latency CDF\n") {
		t.Fatalf("CDF lacks its title:\n%s", out)
	}
	for name := range samples {
		if !strings.Contains(out, " "+name+"\n") {
			t.Errorf("CDF legend missing %q:\n%s", name, out)
		}
	}
}
