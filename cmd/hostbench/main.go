// Command hostbench runs the host-performance rig (internal/hostbench)
// and writes BENCH_host.json: where the simulator spends real CPU, as
// opposed to the simulated-cycle telemetry the figures are built from.
//
// Usage:
//
//	hostbench [-out BENCH_host.json] [-run REGEXP]
//	          [-live ADDR] [-live-linger D] [-metrics FILE]
//
// -live serves benchmark progress on the standard introspection endpoints
// (/jobs, /events, /metrics) while the rig runs — useful because a full
// run takes minutes; -metrics writes the final OpenMetrics body to a file
// at exit, with or without -live.
//
// Every benchmark body is driven through testing.Benchmark (the standard
// ~1s auto-scaling), so the emitted numbers match what
// `go test ./internal/hostbench -bench .` prints. The document records
// per-benchmark iterations, ns/op and reported metrics, one absolute row
// per body: the sweep loops (SweepTags per granule, SweepTagsWords per
// tag word) and shadow probes (ShadowTest, ShadowPaintedWord); the
// per-granule tag accessors; BusSweepMix (one swept page's tag-table,
// data-line and shadow-bitmap accesses in the order the sweep issues
// them) and BusAccessRange (one page-sized store range), the bus cache
// model; CampaignWord, the end-to-end heap-scale sweep campaign under the
// word-wise kernel; SimCampaignWord, the full simulator over
// a sweep-heavy CHERIvoke campaign; SimCampaignFast, a Reloaded campaign
// over an 8192-connection open-loop fleet (internal/workload/fleet), which
// is scheduler-bound; HeapSweepSparse, a whole-bank audit sweep over a
// million-frame bank with sparse tags; and FleetSetupFast, an
// allocation-bound connection-fleet campaign. Their trajectories are
// tracked across commits, and regressions gated, with
// `go run ./cmd/obs diff [-max-regress PCT] OLD NEW` over two documents
// from the same host.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"runtime"
	"testing"

	"repro/internal/expt/cliflags"
	"repro/internal/hostbench"
	"repro/internal/journal"
)

// Schema identifies the document layout.
const Schema = "cornucopia-hostbench/v1"

type benchResult struct {
	Name    string             `json:"name"`
	Iters   int                `json:"iters"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type document struct {
	Schema     string        `json:"schema"`
	Go         string        `json:"go"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Benchmarks []benchResult `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hostbench: ")
	out := flag.String("out", "BENCH_host.json", "write the benchmark document to this file ('-' for stdout)")
	run := flag.String("run", "", "only run benchmarks matching this regexp")
	lf := cliflags.RegisterLive()
	flag.Parse()

	var filter *regexp.Regexp
	if *run != "" {
		var err error
		if filter, err = regexp.Compile(*run); err != nil {
			log.Fatalf("bad -run regexp: %v", err)
		}
	}

	live, err := lf.Start("hostbench")
	if err != nil {
		log.Fatal(err)
	}
	var selected []int // indices into hostbench.Benchmarks
	for i, b := range hostbench.Benchmarks {
		if filter != nil && !filter.MatchString(b.Name) {
			continue
		}
		selected = append(selected, i)
	}

	doc := document{
		Schema:     Schema,
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for done, i := range selected {
		b := hostbench.Benchmarks[i]
		r := testing.Benchmark(b.F)
		if r.N == 0 {
			log.Fatalf("%s: benchmark failed to run", b.Name)
		}
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		br := benchResult{Name: b.Name, Iters: r.N, NsPerOp: ns}
		if len(r.Extra) > 0 {
			br.Metrics = r.Extra
		}
		doc.Benchmarks = append(doc.Benchmarks, br)
		live.Observe(journal.Event{
			Kind: journal.KindJobResult, Key: b.Name, Workload: b.Name, Condition: "hostbench", Status: "ran",
			HostMS: float64(r.T.Nanoseconds()) / 1e6,
			Done:   done + 1, Total: len(selected),
		})
		fmt.Fprintf(os.Stderr, "%-24s %12d iters  %14.1f ns/op\n", b.Name, r.N, ns)
	}

	enc, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d benchmarks, schema %s)\n", *out, len(doc.Benchmarks), Schema)
	}

	if err := lf.Finish(live); err != nil {
		log.Print(err)
	}
}
