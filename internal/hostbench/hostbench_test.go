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
func BenchmarkSimCampaignWord(b *testing.B)      { SimCampaignWord(b) }
func BenchmarkSimCampaignFast(b *testing.B)      { SimCampaignFast(b) }
func BenchmarkHeapSweepSparse(b *testing.B)      { HeapSweepSparse(b) }
func BenchmarkFleetSetupFast(b *testing.B)       { FleetSetupFast(b) }

// TestCampaignWordPassCounts sweeps the heap-scale campaign fixture once
// and requires the work the fixture is built to have — every tagged
// granule visited, every granule in the quarantined stripe revoked — and
// a restore that re-tags every granule, so CampaignWord times the same
// epoch every iteration.
func TestCampaignWordPassCounts(t *testing.T) {
	h := newCampaignHeap()
	h.paintEpoch(0)
	visited, revoked := h.sweepWord()
	h.restoreEpoch(0)
	perFrame := tmem.GranulesPerPage / campTagStride
	if want := campFrames * perFrame; visited != want {
		t.Fatalf("visited %d capabilities, want all %d tagged granules", visited, want)
	}
	if want := campFrames / campPaintStride * perFrame; revoked != want {
		t.Fatalf("revoked %d capabilities, want the %d in the quarantined stripe", revoked, want)
	}
	tags := 0
	for _, id := range h.ids {
		tags += h.p.TagCount(id)
	}
	if want := campFrames * perFrame; tags != want {
		t.Fatalf("restore left %d tags, want %d", tags, want)
	}
}
