// txserver runs a latency-sensitive transaction server (a miniature of the
// paper's pgbench experiment) under each temporal-safety strategy and
// prints the per-transaction latency distribution — the shape of Figure 7:
// the strategies are indistinguishable at the median, and separate
// dramatically in the tail, with Reloaded's near-elimination of
// stop-the-world pauses cutting the 99th percentile.
//
//	go run ./examples/txserver
package main

import (
	"fmt"
	"log"

	"repro/internal/harness"
	"repro/internal/workload/pgbench"
)

func main() {
	const txs = 3000
	cfg := harness.PgbenchConfig()
	fmt.Printf("transaction server, %d transactions per condition (virtual time)\n\n", txs)
	fmt.Printf("%-12s %8s %8s %8s %8s %8s %9s\n",
		"condition", "p50(ms)", "p90(ms)", "p99(ms)", "p99.9", "max(ms)", "pauses")
	for _, cond := range append([]harness.Condition{harness.Baseline()}, harness.StandardConditions()...) {
		r, err := harness.Run(pgbench.New(txs), cond, cfg)
		if err != nil {
			log.Fatal(err)
		}
		hz, lat := r.HzGHz*1e6, r.Lat()
		var stwMax float64
		for _, e := range r.Epochs {
			if v := float64(e.STWCycles) / hz; v > stwMax {
				stwMax = v
			}
		}
		fmt.Printf("%-12s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3fms\n",
			cond.Name,
			lat.Percentile(50)/hz, lat.Percentile(90)/hz,
			lat.Percentile(99)/hz, lat.Percentile(99.9)/hz,
			lat.Max()/hz, stwMax)
	}
	fmt.Println("\n(pauses = longest stop-the-world; Reloaded's is microseconds, so its tail")
	fmt.Println(" tracks the quarantine machinery rather than revocation pauses)")
}
