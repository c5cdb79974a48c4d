// Command hostbench runs the host-performance rig (internal/hostbench)
// and writes BENCH_host.json: where the simulator spends real CPU, as
// opposed to the simulated-cycle telemetry the figures are built from.
//
// Usage:
//
//	hostbench [-out BENCH_host.json] [-run REGEXP] [-check]
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
// per-benchmark iterations, ns/op and reported metrics, plus the headline
// speedup ratios of the word-wise sweep kernel over the per-granule
// oracle:
//
//   - sweep_kernel: SweepTags / SweepTagsWords on a dense-tag page
//   - shadow_probe: ShadowTest / ShadowPaintedWord over the same span
//   - campaign: CampaignGranule / CampaignWord, the end-to-end heap-scale
//     sweep campaign
//   - sim_campaign_kernel: SimCampaignGranule / SimCampaignWord, the full
//     simulator under each -sweepkernel. Expected ≈1×: the word kernel is
//     required to replay the granule kernel's exact simulated bus/tick
//     sequence, so both kernels pay the same cost-model work per visited
//     capability (two or three bus cache lookups, each with its tick), and
//     that shared work outweighs what the word kernel saves on tag
//     iteration. The bus bodies below time that work on its own.
//
// plus the speedup of the fast sim engine over the classic one:
//
//   - sim_campaign: SimCampaignClassic / SimCampaignFast, a Reloaded
//     revocation campaign over an 8192-connection open-loop fleet
//     (internal/workload/fleet) under each -simengine. The fleet is
//     scheduler-bound — almost every thread is asleep at any instant — so
//     this is where the classic engine's two channel crossings per slice
//     and O(threads) sleeper scan per dispatch show up end to end.
//
// plus the speedup of the sparse memory representations over their flat
// differential oracles (-mempath):
//
//   - heap_sweep: HeapSweepFlat / HeapSweepSparse, a whole-bank audit
//     sweep over a million-frame bank with sparse tags. The sparse walk
//     descends the region → frame-group summary tree in O(live tags);
//     the flat oracle scans every frame struct.
//   - fleet_setup: FleetSetupFlat / FleetSetupFast, an allocation-bound
//     connection-fleet campaign (large per-connection session pools)
//     under each -mempath. Word-masked tag clears, shadow chunk
//     recycling and O(1) vpn appends against the flat per-granule paths.
//
// BusSweepMix (one swept page's tag-table, data-line and shadow-bitmap
// accesses in the order the sweep issues them) and BusAccessRange (one
// page-sized store range) record the bus cache model's absolute ns/op;
// they have no slow twin and no ratio.
//
// -check exits nonzero unless sweep_kernel ≥ 3, campaign ≥ 1.5,
// sim_campaign ≥ 3, heap_sweep ≥ 5 and fleet_setup ≥ 2, the acceptance
// floors the committed BENCH_host.json is regenerated under.
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
	"repro/internal/telemetry"
)

// Schema identifies the document layout.
const Schema = "cornucopia-hostbench/v1"

type benchResult struct {
	Name    string             `json:"name"`
	Iters   int                `json:"iters"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type ratio struct {
	Baseline  string  `json:"baseline"`
	Contender string  `json:"contender"`
	Speedup   float64 `json:"speedup"`
}

type document struct {
	Schema     string           `json:"schema"`
	Go         string           `json:"go"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Benchmarks []benchResult    `json:"benchmarks"`
	Ratios     map[string]ratio `json:"ratios"`
}

// ratioDefs names the headline speedups: contender ns/op in the
// denominator, so >1 means the word kernel (or fast engine) is faster.
var ratioDefs = []struct {
	key, baseline, contender string
}{
	{"sweep_kernel", hostbench.NameSweepTags, hostbench.NameSweepTagsWords},
	{"shadow_probe", hostbench.NameShadowTest, hostbench.NameShadowPainted},
	{"campaign", hostbench.NameCampaignGranule, hostbench.NameCampaignWord},
	{"sim_campaign_kernel", hostbench.NameSimCampaignGranule, hostbench.NameSimCampaignWord},
	{"sim_campaign", hostbench.NameSimCampaignClassic, hostbench.NameSimCampaignFast},
	{"heap_sweep", hostbench.NameHeapSweepFlat, hostbench.NameHeapSweepSparse},
	{"fleet_setup", hostbench.NameFleetSetupFlat, hostbench.NameFleetSetupFast},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hostbench: ")
	out := flag.String("out", "BENCH_host.json", "write the benchmark document to this file ('-' for stdout)")
	run := flag.String("run", "", "only run benchmarks matching this regexp")
	check := flag.Bool("check", false, "exit nonzero unless sweep_kernel >= 3, campaign >= 1.5, sim_campaign >= 3, heap_sweep >= 5 and fleet_setup >= 2")
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
		Ratios:     map[string]ratio{},
	}
	nsPerOp := map[string]float64{}
	for done, i := range selected {
		b := hostbench.Benchmarks[i]
		r := testing.Benchmark(b.F)
		if r.N == 0 {
			log.Fatalf("%s: benchmark failed to run", b.Name)
		}
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		nsPerOp[b.Name] = ns
		br := benchResult{Name: b.Name, Iters: r.N, NsPerOp: ns}
		if len(r.Extra) > 0 {
			br.Metrics = r.Extra
		}
		doc.Benchmarks = append(doc.Benchmarks, br)
		live.Observe(telemetry.JobUpdate{
			Key: b.Name, Workload: b.Name, Condition: "hostbench", Status: "ran",
			HostMS: float64(r.T.Nanoseconds()) / 1e6,
			Done:   done + 1, Total: len(selected),
		})
		fmt.Fprintf(os.Stderr, "%-24s %12d iters  %14.1f ns/op\n", b.Name, r.N, ns)
	}

	for _, d := range ratioDefs {
		base, okB := nsPerOp[d.baseline]
		cont, okC := nsPerOp[d.contender]
		if !okB || !okC {
			continue
		}
		doc.Ratios[d.key] = ratio{Baseline: d.baseline, Contender: d.contender, Speedup: base / cont}
		fmt.Fprintf(os.Stderr, "%-24s %6.2fx  (%s / %s)\n", d.key, base/cont, d.baseline, d.contender)
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

	if *check {
		fail := false
		for key, min := range map[string]float64{"sweep_kernel": 3, "campaign": 1.5, "sim_campaign": 3, "heap_sweep": 5, "fleet_setup": 2} {
			r, ok := doc.Ratios[key]
			if !ok {
				log.Printf("check: ratio %s not measured (filtered out?)", key)
				fail = true
			} else if r.Speedup < min {
				log.Printf("check: %s speedup %.2fx below the %.1fx floor", key, r.Speedup, min)
				fail = true
			}
		}
		if fail {
			os.Exit(1)
		}
	}
}
