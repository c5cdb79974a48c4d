// Package hostbench holds the host-performance benchmarks: where the
// simulator itself spends real CPU, the complement of the simulated-cycle
// telemetry (a host optimisation keeps simulated results bit-identical
// while host cost drops). They are microbenchmarks of the per-granule and
// word-wise sweep inner loops (tmem.SweepTags vs SweepTagsWords,
// shadow.Test vs shadow.PaintedWord), the per-granule tag accessors, the
// bus cache model under the sweep's and the store path's access
// patterns, and end-to-end simulated campaigns: sweep-heavy,
// scheduler-heavy and allocation-heavy.
//
// The package is test-only. `make hostbench-smoke` runs every benchmark
// once; a single campaign is profiled with
//
//	go test ./internal/hostbench -run '^$' -bench SimCampaignFast -benchtime 1x -cpuprofile cpu.out
//
// Whether a change is faster end to end is decided by the repository
// benchmark (bash bench/run.sh -compare), not by these numbers.
package hostbench

import (
	"math/bits"
	"testing"

	"repro/internal/bus"
	"repro/internal/ca"
	"repro/internal/harness"
	"repro/internal/kernel"
	"repro/internal/quarantine"
	"repro/internal/revoke"
	"repro/internal/shadow"
	"repro/internal/tmem"
	"repro/internal/workload"
	"repro/internal/workload/fleet"
)

// heapBase places the microbenchmark "heap" away from zero, like real
// allocations.
const heapBase = 0x2000_0000

// sink defeats dead-code elimination of the benchmark loops.
var sink int

// densePage builds the microbenchmark fixture: one frame with every
// granule tagged, whose capabilities point at a contiguous heap span, of
// which every eighth granule is painted. Dense tags with a sparse intersection is the
// sweep's steady state: most of the heap is live, a fraction is in
// quarantine.
func densePage() (*tmem.Phys, tmem.FrameID, *shadow.Bitmap) {
	p := tmem.NewPhys(1)
	f, err := p.AllocFrame()
	if err != nil {
		panic(err)
	}
	sh := shadow.New()
	auth := ca.NewRoot(heapBase, tmem.PageSize, ca.PermsData|ca.PermPaint)
	for g := 0; g < tmem.GranulesPerPage; g++ {
		base := uint64(heapBase + g*ca.GranuleSize)
		p.StoreCap(f, g, ca.NewRoot(base, ca.GranuleSize, ca.PermsData))
		if g%8 == 0 {
			if err := sh.Paint(auth, base, ca.GranuleSize); err != nil {
				panic(err)
			}
		}
	}
	return p, f, sh
}

// BenchmarkSweepTags is the per-granule sweep loop: one callback per tagged
// granule, one shadow chunk-map lookup per probe.
func BenchmarkSweepTags(b *testing.B) {
	p, f, sh := densePage()
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SweepTags(f, func(g int, c ca.Capability) bool {
			if sh.Test(c.Base()) {
				hits++
			}
			return false
		})
	}
	sink = hits
}

// BenchmarkSweepTagsWords is the word-wise sweep loop over the same page:
// one callback per nonzero tag word, intersected against the matching
// 64-granule shadow word, descending only to intersection bits.
func BenchmarkSweepTagsWords(b *testing.B) {
	p, f, sh := densePage()
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SweepTagsWords(f, func(cur *tmem.SweepCursor, w int, mask uint64, caps tmem.WordCaps) {
			wordBase := uint64(heapBase + w*64*ca.GranuleSize)
			for m := mask & sh.PaintedWord(wordBase); m != 0; m &= m - 1 {
				hits++
			}
		})
	}
	sink = hits
}

// BenchmarkShadowTest probes one address per granule of a painted span
// through the per-granule entry point.
func BenchmarkShadowTest(b *testing.B) {
	_, _, sh := densePage()
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for g := 0; g < tmem.GranulesPerPage; g++ {
			if sh.Test(uint64(heapBase + g*ca.GranuleSize)) {
				hits++
			}
		}
	}
	sink = hits
}

// BenchmarkShadowPaintedWord covers the same span in 64-granule strides
// through the word entry point and its chunk cache.
func BenchmarkShadowPaintedWord(b *testing.B) {
	_, _, sh := densePage()
	hits := 0
	wordSpan := 64 * ca.GranuleSize
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for a := uint64(heapBase); a < heapBase+tmem.PageSize; a += uint64(wordSpan) {
			for m := sh.PaintedWord(a); m != 0; m &= m - 1 {
				hits++
			}
		}
	}
	sink = hits
}

// BenchmarkTmemLoadCap, BenchmarkTmemTagSet and
// BenchmarkTmemClearTagStoreCap time the per-granule tag accessors whose
// index computation the shared loc helper hoists: revocation's most
// frequent operations.
func BenchmarkTmemLoadCap(b *testing.B) {
	p, f, _ := densePage()
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for g := 0; g < tmem.GranulesPerPage; g++ {
			if p.LoadCap(f, g).Tag() {
				hits++
			}
		}
	}
	sink = hits
}

func BenchmarkTmemTagSet(b *testing.B) {
	p, f, _ := densePage()
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for g := 0; g < tmem.GranulesPerPage; g++ {
			if p.TagSet(f, g) {
				hits++
			}
		}
	}
	sink = hits
}

func BenchmarkTmemClearTagStoreCap(b *testing.B) {
	p, f, _ := densePage()
	c := ca.NewRoot(heapBase, ca.GranuleSize, ca.PermsData)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for g := 0; g < tmem.GranulesPerPage; g++ {
			p.ClearTag(f, g)
			p.StoreCap(f, g, c)
		}
	}
}

// The bus bodies stream over a heap window of busFrames pages, 32 times
// the default per-core cache, so data lines miss in steady state as they
// do in a whole-heap sweep. There is no slow twin: they record the cache
// model's absolute cost per operation. tagTableVA stands in for the
// kernel's tag-table alias, away from the heap and the shadow bitmap.
const (
	busFrames  = 2048 // 8 MiB
	tagTableVA = 0x7000_0000_0000
)

// BenchmarkBusSweepMix issues one swept page's bus traffic per op, in the
// order the word sweep kernel issues it: the page's tag-table line, then
// for every tagged granule (every fourth, one self-pointing capability per
// 64 B object) a read of the granule's data line followed by a probe of
// the shadow-bitmap line covering the capability's base.
func BenchmarkBusSweepMix(b *testing.B) {
	bs := bus.New(1, bus.DefaultConfig())
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := uint64(i % busFrames)
		page := heapBase + f*tmem.PageSize
		cycles += bs.AccessRange(0, tagTableVA+f*tmem.GranulesPerPage/8, tmem.GranulesPerPage/8, bus.AgentRevoker, false)
		for g := 0; g < tmem.GranulesPerPage; g += campTagStride {
			va := page + uint64(g*ca.GranuleSize)
			cycles += bs.Access(0, va, bus.AgentRevoker, false)
			cycles += bs.Access(0, shadow.VAOf(va), bus.AgentRevoker, false)
		}
	}
	sink = int(cycles)
}

// BenchmarkBusAccessRange issues one page-sized store range per op, the bus
// traffic of a page-sized memset or copy, streaming so that every line
// misses and, once the cache has filled, evicts a dirty line.
func BenchmarkBusAccessRange(b *testing.B) {
	bs := bus.New(1, bus.DefaultConfig())
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page := heapBase + uint64(i%busFrames)*tmem.PageSize
		cycles += bs.AccessRange(0, page, tmem.PageSize, bus.AgentApp, true)
	}
	sink = int(cycles)
}

// The heap-scale campaign: a multi-megabyte tagged heap swept epoch after
// epoch, with a rotating stripe of frames in quarantine. Unlike the
// SimCampaign benchmarks below, this path runs the word-wise sweep loop
// at its own natural host recipe — tag words intersected against
// PaintedWord — so it measures sweep throughput over realistic heap
// geometry (many frames, many shadow chunks, sparse quarantine) rather
// than the simulator's fixed per-granule cost model.
const (
	campFrames      = 2048 // 8 MiB heap
	campTagStride   = 4    // every 4th granule holds a capability
	campPaintStride = 8    // 1/8 of the frames quarantined per epoch
)

type campaignHeap struct {
	p    *tmem.Phys
	ids  []tmem.FrameID
	sh   *shadow.Bitmap
	auth ca.Capability
}

func (h *campaignHeap) frameVA(i int) uint64 {
	return heapBase + uint64(i)*tmem.PageSize
}

// newCampaignHeap builds the resident heap: campFrames frames whose tagged
// granules hold self-pointing capabilities, the pointer locality a real
// allocator produces and the regime the shadow chunk cache targets.
func newCampaignHeap() *campaignHeap {
	h := &campaignHeap{
		p:    tmem.NewPhys(campFrames),
		sh:   shadow.New(),
		auth: ca.NewRoot(heapBase, campFrames*tmem.PageSize, ca.PermsData|ca.PermPaint),
	}
	for i := 0; i < campFrames; i++ {
		f, err := h.p.AllocFrame()
		if err != nil {
			panic(err)
		}
		h.ids = append(h.ids, f)
		for g := 0; g < tmem.GranulesPerPage; g += campTagStride {
			base := h.frameVA(i) + uint64(g*ca.GranuleSize)
			h.p.StoreCap(f, g, ca.NewRoot(base, ca.GranuleSize, ca.PermsData))
		}
	}
	return h
}

// paintEpoch quarantines epoch e's stripe of frames.
func (h *campaignHeap) paintEpoch(e int) {
	for i := e % campPaintStride; i < campFrames; i += campPaintStride {
		if err := h.sh.Paint(h.auth, h.frameVA(i), tmem.PageSize); err != nil {
			panic(err)
		}
	}
}

// restoreEpoch releases the stripe and re-tags the revoked granules, so
// every epoch sweeps an identical heap.
func (h *campaignHeap) restoreEpoch(e int) {
	for i := e % campPaintStride; i < campFrames; i += campPaintStride {
		if err := h.sh.Unpaint(h.auth, h.frameVA(i), tmem.PageSize); err != nil {
			panic(err)
		}
		for g := 0; g < tmem.GranulesPerPage; g += campTagStride {
			base := h.frameVA(i) + uint64(g*ca.GranuleSize)
			h.p.StoreCap(h.ids[i], g, ca.NewRoot(base, ca.GranuleSize, ca.PermsData))
		}
	}
}

// sweepWord is one whole-heap revocation pass through the word-wise
// kernel: tag words intersected against shadow words, descending only to
// intersection bits.
func (h *campaignHeap) sweepWord() (visited, revoked int) {
	for i, id := range h.ids {
		base := h.frameVA(i)
		v, r := h.p.SweepTagsWords(id, func(cur *tmem.SweepCursor, w int, mask uint64, _ tmem.WordCaps) {
			for m := mask & h.sh.PaintedWord(base+uint64(w*64*ca.GranuleSize)); m != 0; m &= m - 1 {
				cur.Revoke(w*64 + bits.TrailingZeros64(m))
			}
		})
		visited += v
		revoked += r
	}
	return visited, revoked
}

// BenchmarkCampaignWord times the heap-scale campaign's full revocation
// epoch loop: quarantine paint, whole-heap sweep, then release and refill.
func BenchmarkCampaignWord(b *testing.B) {
	h := newCampaignHeap()
	var visited, revoked int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := i % campPaintStride
		h.paintEpoch(e)
		visited, revoked = h.sweepWord()
		h.restoreEpoch(e)
	}
	if revoked == 0 {
		b.Fatal("campaign revoked nothing — not a sweep benchmark")
	}
	b.ReportMetric(float64(visited), "caps-visited")
	b.ReportMetric(float64(revoked), "caps-revoked")
}

// storm is the simulated campaign workload: a large resident pool of
// pointer-dense objects (one self-capability per object, so every object
// contributes a tagged granule) churned just hard enough to keep epochs
// coming. Nearly all simulated work is the revoker's sweep over the
// resident tags, so the sweep's host cost is measurable rather than
// drowned in application simulation.
type storm struct {
	objs  int
	churn int
	size  uint64
}

func (s storm) Name() string { return "sweepstorm" }

func (s storm) Body(rig *workload.Rig, th *kernel.Thread) {
	alloc := func() ca.Capability {
		c, err := rig.Mem.Malloc(th, s.size)
		if err != nil {
			panic(err)
		}
		if err := th.StoreCap(c, 0, c); err != nil {
			panic(err)
		}
		return c
	}
	caps := make([]ca.Capability, s.objs)
	for i := range caps {
		caps[i] = alloc()
	}
	k := 0
	for i := 0; i < s.churn; i++ {
		if err := rig.Mem.Free(th, caps[k]); err != nil {
			panic(err)
		}
		caps[k] = alloc()
		k = (k + 1) % len(caps)
	}
	for _, c := range caps {
		if err := rig.Mem.Free(th, c); err != nil {
			panic(err)
		}
	}
	if shim, ok := rig.Mem.(*quarantine.Shim); ok {
		shim.Flush(th)
	}
	rig.Join(th)
}

// BenchmarkSimCampaignWord times the full simulator over a sweep-heavy
// campaign: CHERIvoke (every epoch sweeps the whole heap, no dirty-page
// filtering) with a small quarantine floor, so the resident pool is
// re-swept constantly. Most of its host time is the sweep's per-granule simulated
// recipe — two or three bus cache lookups per visited capability, each
// with its tick — which BenchmarkBusSweepMix times on its own.
func BenchmarkSimCampaignWord(b *testing.B) {
	cond := harness.Condition{
		Name: "CHERIvoke", Shimmed: true, Strategy: revoke.CHERIvoke,
		RevokerCores: []int{2},
		// An explicit policy with a tiny floor and no blocking backoff:
		// the default scaled policy triggers off live-heap fraction, which
		// a large resident pool satisfies after only a couple of epochs.
		Policy: quarantine.Policy{HeapFraction: 0.001, MinBytes: 8 << 10, BlockFactor: 1000},
	}
	cfg := harness.DefaultConfig()
	w := storm{objs: 1 << 15, churn: 4096, size: 64}
	visited := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := harness.Run(w, cond, cfg)
		if err != nil {
			b.Fatal(err)
		}
		visited = 0
		for _, e := range r.Epochs {
			visited += e.CapsVisited
		}
		if visited == 0 {
			b.Fatal("campaign swept nothing — not a sweep benchmark")
		}
	}
	b.ReportMetric(float64(visited), "caps-visited")
}

// BenchmarkSimCampaignFast times the scheduler-heavy campaign: a Reloaded
// revocation campaign over an open-loop connection fleet
// (internal/workload/fleet) in which almost every thread is asleep at any
// instant. Per-request compute is tiny, so host time concentrates in the
// simulator's dispatch machinery: inline scheduling and the sleeper heap.
func BenchmarkSimCampaignFast(b *testing.B) {
	cond := harness.Condition{
		Name: "Reloaded", Shimmed: true, Strategy: revoke.Reloaded,
		RevokerCores: []int{2},
		// A small quarantine floor keeps epochs coming even though the
		// fleet's live session state is deliberately tiny.
		Policy: quarantine.Policy{HeapFraction: 0.001, MinBytes: 1 << 20, BlockFactor: 1000},
	}
	cfg := harness.DefaultConfig()
	cfg.AppCores = []int{0, 1, 3}
	w := fleet.New(8192, 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := harness.Run(w, cond, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Epochs) == 0 || w.Messages == 0 {
			b.Fatalf("campaign degenerate: %d epochs, %d messages", len(r.Epochs), w.Messages)
		}
	}
	b.ReportMetric(float64(w.Messages), "messages")
}

// BenchmarkFleetSetupFast times the same open-loop connection fleet as
// BenchmarkSimCampaignFast, but allocation-bound instead of
// scheduler-bound: fewer connections, each building a large session pool
// (8 slots × 16 KiB) and churning it, with a few requests of steady state. Memory-model host
// costs dominate: word-masked data-store tag clears, shadow paint/unpaint
// on session frees with chunk recycling, recycled capability arrays, and
// the O(1) ascending vpn append.
func BenchmarkFleetSetupFast(b *testing.B) {
	cond := harness.Condition{
		Name: "Reloaded", Shimmed: true, Strategy: revoke.Reloaded,
		RevokerCores: []int{2},
		Policy:       quarantine.Policy{HeapFraction: 0.001, MinBytes: 1 << 20, BlockFactor: 1000},
	}
	cfg := harness.DefaultConfig()
	cfg.AppCores = []int{0, 1, 3}
	w := fleet.New(1024, 16)
	w.SessionSlots = 8
	w.SessionBytes = 16384
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := harness.Run(w, cond, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if w.Messages == 0 || r.WallCycles == 0 {
			b.Fatalf("campaign degenerate: %d messages", w.Messages)
		}
	}
	b.ReportMetric(float64(w.Messages), "messages")
}

// TestCampaignWordPassCounts sweeps the heap-scale campaign fixture once
// and requires the work the fixture is built to have — every tagged
// granule visited, every granule in the quarantined stripe revoked — and
// a restore that re-tags every granule, so BenchmarkCampaignWord times
// the same epoch every iteration.
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
