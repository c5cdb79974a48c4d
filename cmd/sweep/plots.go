package main

import (
	"fmt"
	"strings"

	"repro/internal/expt"
	"repro/internal/harness"
	"repro/internal/metrics"
)

// plot renders the ASCII companion of a figure that has one — Figure 7's
// latency CDF and Figure 9's box strips — or "" for every other figure.
// Figure 7's samples come from the pgbench matrix its table already
// folded, so they are memo hits on g and add no job; g must still be open
// (under -exec=net the coordinator serves them until it closes).
func plot(id string, tb *harness.Table, o expt.Options, g expt.Getter) (string, error) {
	switch id {
	case "fig7":
		samples, err := expt.Fig7Samples(o, g)
		if err != nil {
			return "", err
		}
		return fig7CDF(samples), nil
	case "fig9":
		return fig9Strips(tb), nil
	}
	return "", nil
}

// fig7CDF draws Figure 7's per-transaction latency CDF, one curve per
// revoking condition (samples in milliseconds, as expt.Fig7Samples
// returns them).
func fig7CDF(samples map[string]*metrics.Samples) string {
	p := &metrics.CDFPlot{
		Title:  "Figure 7: pgbench per-transaction latency CDF",
		XLabel: "latency (ms)",
	}
	for _, name := range []string{"Paint+sync", "CHERIvoke", "Cornucopia", "Reloaded"} {
		p.Add(name, samples[name])
	}
	return p.Render()
}

// fig9Strips draws Figure 9's table as one box strip per benchmark. Each
// row's "min/p25/median/p75/max" cell becomes one labelled box; rows
// without a distribution ("--") or with a malformed cell are skipped.
func fig9Strips(t *harness.Table) string {
	// Group rows by benchmark and draw one strip each.
	var order []string
	groups := map[string][][]string{}
	for _, row := range t.Rows {
		if _, ok := groups[row[0]]; !ok {
			order = append(order, row[0])
		}
		groups[row[0]] = append(groups[row[0]], row)
	}
	var b strings.Builder
	for _, bench := range order {
		strip := &metrics.BoxStrip{Title: bench, XLabel: "ms", Width: 56}
		for _, row := range groups[bench] {
			if row[3] == "--" {
				continue
			}
			parts := strings.Split(row[3], "/")
			if len(parts) != 5 {
				continue
			}
			var v [5]float64
			ok := true
			for i, p := range parts {
				if _, err := fmt.Sscanf(p, "%g", &v[i]); err != nil {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			strip.Add(row[1]+" "+row[2], metrics.Box{Min: v[0], P25: v[1], Median: v[2], P75: v[3], Max: v[4]})
		}
		b.WriteString(strip.Render())
		b.WriteString("\n")
	}
	return b.String()
}
