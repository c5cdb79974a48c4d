package hostbench

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/kernel"
	"repro/internal/quarantine"
	"repro/internal/revoke"
	"repro/internal/sim"
	"repro/internal/tmem"
	"repro/internal/workload/fleet"
)

// Standard Benchmark* wrappers over the shared bodies, so the whole rig
// runs under plain `go test -bench .` (CI's hostbench-smoke uses
// -benchtime=1x for a liveness check; `make hostbench` drives the same
// bodies through cmd/hostbench for the committed BENCH_host.json).

func BenchmarkSweepTags(b *testing.B)            { SweepTags(b) }
func BenchmarkSweepTagsWords(b *testing.B)       { SweepTagsWords(b) }
func BenchmarkShadowTest(b *testing.B)           { ShadowTest(b) }
func BenchmarkShadowPaintedWord(b *testing.B)    { ShadowPaintedWord(b) }
func BenchmarkTmemLoadCap(b *testing.B)          { TmemLoadCap(b) }
func BenchmarkTmemTagSet(b *testing.B)           { TmemTagSet(b) }
func BenchmarkTmemClearTagStoreCap(b *testing.B) { TmemClearTagStoreCap(b) }
func BenchmarkBusSweepMix(b *testing.B)          { BusSweepMix(b) }
func BenchmarkBusAccessRange(b *testing.B)       { BusAccessRange(b) }
func BenchmarkCampaignWord(b *testing.B)         { CampaignWord(b) }
func BenchmarkCampaignGranule(b *testing.B)      { CampaignGranule(b) }
func BenchmarkSimCampaignWord(b *testing.B)      { SimCampaignWord(b) }
func BenchmarkSimCampaignGranule(b *testing.B)   { SimCampaignGranule(b) }
func BenchmarkSimCampaignFast(b *testing.B)      { SimCampaignFast(b) }
func BenchmarkSimCampaignClassic(b *testing.B)   { SimCampaignClassic(b) }
func BenchmarkHeapSweepSparse(b *testing.B)      { HeapSweepSparse(b) }
func BenchmarkHeapSweepFlat(b *testing.B)        { HeapSweepFlat(b) }
func BenchmarkFleetSetupFast(b *testing.B)       { FleetSetupFast(b) }
func BenchmarkFleetSetupFlat(b *testing.B)       { FleetSetupFlat(b) }

// TestCampaignKernelsAgree sweeps the heap-scale campaign fixture once
// under each kernel and requires identical visited/revoked counts and an
// identically restored heap, so the two Campaign benchmarks can never
// drift into timing unequal work.
func TestCampaignKernelsAgree(t *testing.T) {
	run := func(word bool) (visited, revoked, tags int) {
		h := newCampaignHeap()
		h.paintEpoch(0)
		if word {
			visited, revoked = h.sweepWord()
		} else {
			visited, revoked = h.sweepGranule()
		}
		h.restoreEpoch(0)
		for _, id := range h.ids {
			tags += h.p.TagCount(id)
		}
		return visited, revoked, tags
	}
	wv, wr, wt := run(true)
	gv, gr, gt := run(false)
	if wv != gv || wr != gr || wt != gt {
		t.Fatalf("kernels diverged: visited %d vs %d, revoked %d vs %d, tags after restore %d vs %d",
			wv, gv, wr, gr, wt, gt)
	}
	if wantTags := campFrames * (tmem.GranulesPerPage / campTagStride); wt != wantTags {
		t.Fatalf("restore left %d tags, want %d", wt, wantTags)
	}
	if wr == 0 || wv <= wr {
		t.Fatalf("campaign shape wrong: visited %d, revoked %d (want sparse quarantine within dense tags)", wv, wr)
	}
}

// TestSimCampaignKernelsAgree reruns a scaled-down simulated campaign
// under both kernels and requires identical simulated results — the same
// invariant the differential suite pins, kept here so the benchmark
// fixture itself can never drift into comparing unequal work.
func TestSimCampaignKernelsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	run := func(sk kernel.SweepKernel) (wall, visited uint64) {
		cond := harness.Condition{
			Name: "CHERIvoke", Shimmed: true, Strategy: revoke.CHERIvoke,
			RevokerCores: []int{2},
		}
		cfg := harness.DefaultConfig()
		cfg.QuarantineMin = 32 << 10
		cfg.SweepKernel = sk
		r, err := harness.Run(storm{objs: 2048, churn: 1024, size: 64}, cond, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range r.Epochs {
			visited += e.CapsVisited
		}
		return r.WallCycles, visited
	}
	ww, wv := run(kernel.SweepKernelWord)
	gw, gv := run(kernel.SweepKernelGranule)
	if ww != gw || wv != gv {
		t.Fatalf("campaign diverged between kernels: wall %d vs %d, visited %d vs %d", ww, gw, wv, gv)
	}
	if wv == 0 {
		t.Fatal("campaign visited no capabilities")
	}
}

// TestSimFleetEnginesAgree reruns a scaled-down connection-fleet campaign
// under both sim engines and requires identical simulated results, so the
// SimCampaignFast/Classic benchmarks can never drift into timing unequal
// work. (The exhaustive engine-equivalence suites live in internal/sim,
// internal/revoke and internal/expt; this pins the benchmark fixture.)
func TestSimFleetEnginesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	run := func(ek sim.EngineKind) (wall, visited, msgs uint64, epochs int) {
		cond := harness.Condition{
			Name: "Reloaded", Shimmed: true, Strategy: revoke.Reloaded,
			RevokerCores: []int{2},
			Policy:       quarantine.Policy{HeapFraction: 0.001, MinBytes: 8 << 10, BlockFactor: 1000},
		}
		cfg := harness.DefaultConfig()
		cfg.SimEngine = ek
		cfg.AppCores = []int{0, 1, 3}
		w := fleet.New(64, 32)
		r, err := harness.Run(w, cond, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range r.Epochs {
			visited += e.CapsVisited
		}
		return r.WallCycles, visited, w.Messages, len(r.Epochs)
	}
	fw, fv, fm, fe := run(sim.EngineFast)
	cw, cv, cm, ce := run(sim.EngineClassic)
	if fw != cw || fv != cv || fm != cm || fe != ce {
		t.Fatalf("campaign diverged between engines: wall %d vs %d, visited %d vs %d, messages %d vs %d, epochs %d vs %d",
			fw, cw, fv, cv, fm, cm, fe, ce)
	}
	if fe == 0 || fm == 0 {
		t.Fatalf("campaign degenerate: %d epochs, %d messages", fe, fm)
	}
}

// TestFleetSetupMemPathsAgree reruns a scaled-down setup-weighted fleet
// campaign under both memory paths and requires identical simulated
// results, so the FleetSetupFast/Flat benchmarks can never drift into
// timing unequal work. (The exhaustive path-equivalence suites live in
// internal/tmem, internal/shadow and internal/expt; this pins the
// benchmark fixture.)
func TestFleetSetupMemPathsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	run := func(mp kernel.MemPath) (wall, msgs uint64) {
		cond := harness.Condition{
			Name: "Reloaded", Shimmed: true, Strategy: revoke.Reloaded,
			RevokerCores: []int{2},
			Policy:       quarantine.Policy{HeapFraction: 0.001, MinBytes: 1 << 20, BlockFactor: 1000},
		}
		cfg := harness.DefaultConfig()
		cfg.MemPath = mp
		cfg.AppCores = []int{0, 1, 3}
		w := fleet.New(64, 4)
		w.SessionSlots = 8
		w.SessionBytes = 16384
		r, err := harness.Run(w, cond, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.WallCycles, w.Messages
	}
	fw, fm := run(kernel.MemPathFast)
	lw, lm := run(kernel.MemPathFlat)
	if fw != lw || fm != lm {
		t.Fatalf("campaign diverged between memory paths: wall %d vs %d, messages %d vs %d", fw, lw, fm, lm)
	}
	if fm == 0 {
		t.Fatal("campaign degenerate: no messages")
	}
}
