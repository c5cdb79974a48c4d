package hostbench

import (
	"testing"

	"repro/internal/tmem"
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
func BenchmarkSimCampaignFast(b *testing.B)      { SimCampaignFast(b) }
func BenchmarkHeapSweepSparse(b *testing.B)      { HeapSweepSparse(b) }
func BenchmarkFleetSetupFast(b *testing.B)       { FleetSetupFast(b) }

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
