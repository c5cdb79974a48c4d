package main

import (
	"strings"
	"testing"

	"repro/internal/revoke"
)

// TestStrictCheck pins the verdict logic behind the chaos gate's exit
// code: each run's classification, each row's verdict, and the strict
// expectation matrix.
func TestStrictCheck(t *testing.T) {
	reloaded := revoke.Reloaded.String()
	row := func(strategy, class string, runs ...RunOutcome) Cell {
		c := Cell{Strategy: strategy, Class: class}
		for _, r := range runs {
			c.add(r)
		}
		c.Verdict = verdict(c)
		return c
	}
	var (
		clean     = RunOutcome{}
		detected  = RunOutcome{Injections: 3, Violations: 2}
		tolerated = RunOutcome{Injections: 3, Recoveries: 1}
		silent    = RunOutcome{Injections: 3}
	)
	cases := []struct {
		name  string
		cells []Cell
		// verdict is the last row's verdict; fails holds one substring
		// per expected strict failure.
		verdict string
		fails   []string
	}{{
		name: "silent run",
		cells: []Cell{
			row(revoke.Cornucopia.String(), "shootdown-drop", tolerated, silent),
		},
		verdict: "silent",
		fails:   []string{"1 run(s) took injections with no detection and no recovery"},
	}, {
		name: "dirty control",
		cells: []Cell{
			row(reloaded, controlClass, clean, RunOutcome{Violations: 1}),
		},
		verdict: "detected-unsound",
		fails:   []string{"faults-disabled control is detected-unsound (1 violations)"},
	}, {
		name: "cap-dirty-loss tolerated",
		cells: []Cell{
			row(reloaded, "cap-dirty-loss", tolerated, tolerated),
		},
		verdict: "tolerated",
		fails:   []string{"verdict tolerated, want detected-unsound"},
	}, {
		name: "class never fired",
		cells: []Cell{
			row(reloaded, "shootdown-drop", clean, clean),
		},
		verdict: "no-injections",
		fails:   []string{"fault class never fired"},
	}, {
		name: "every row as expected",
		cells: []Cell{
			row(reloaded, controlClass, clean, clean),
			row(reloaded, "cap-dirty-loss", detected, detected),
			row(reloaded, "tag-stale-read", detected, clean),
			row(reloaded, "worker-crash", tolerated, tolerated),
			row(reloaded, "shootdown-drop", tolerated, detected),
			row(revoke.Cornucopia.String(), "cap-dirty-loss", tolerated),
		},
		verdict: "tolerated",
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.cells[len(tc.cells)-1].Verdict; got != tc.verdict {
				t.Errorf("verdict = %s, want %s", got, tc.verdict)
			}
			got := strictCheck(tc.cells)
			if len(got) != len(tc.fails) {
				t.Fatalf("strict failures = %q, want %d", got, len(tc.fails))
			}
			for i, want := range tc.fails {
				if !strings.Contains(got[i], want) {
					t.Errorf("strict failure %d = %q, want it to contain %q", i, got[i], want)
				}
			}
		})
	}
}
