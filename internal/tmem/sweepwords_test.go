package tmem

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/ca"
)

// fillRandom stores capabilities at a random subset of granules and
// returns the set, so word- and granule-kernel runs start from identical
// frames.
func fillRandom(p *Phys, f FrameID, rng *rand.Rand, density float64) map[int]bool {
	tagged := map[int]bool{}
	for g := 0; g < GranulesPerPage; g++ {
		if rng.Float64() < density {
			p.StoreCap(f, g, ca.NewRoot(uint64(g)*ca.GranuleSize, 16, ca.PermsData))
			tagged[g] = true
		}
	}
	return tagged
}

// TestSweepTagsWordsMatchesSweepTags is the kernel-equivalence property at
// the tag-controller level: over random tag patterns and a revocation
// predicate, the word-wise kernel must visit the same granules in the same
// order, revoke the same set, and leave the identical final tag state as
// the per-granule kernel.
func TestSweepTagsWordsMatchesSweepTags(t *testing.T) {
	for _, density := range []float64{0, 0.02, 0.3, 1} {
		rng := rand.New(rand.NewSource(42))
		pg := NewPhys(1)
		pw := NewPhys(1)
		fg, _ := pg.AllocFrame()
		fw, _ := pw.AllocFrame()
		fillRandom(pg, fg, rand.New(rand.NewSource(7)), density)
		fillRandom(pw, fw, rand.New(rand.NewSource(7)), density)

		revoke := map[int]bool{}
		for g := 0; g < GranulesPerPage; g++ {
			revoke[g] = rng.Float64() < 0.5
		}

		var orderG []int
		vg, rg := pg.SweepTags(fg, func(g int, c ca.Capability) bool {
			orderG = append(orderG, g)
			return revoke[g]
		})

		var orderW []int
		vw, rw := pw.SweepTagsWords(fw, func(cur *SweepCursor, w int, mask uint64, caps WordCaps) {
			for m := mask; m != 0; {
				b := bits.TrailingZeros64(m)
				m &^= 1 << uint(b)
				g := w*64 + b
				orderW = append(orderW, g)
				if caps.Get(b).Base() != uint64(g)*ca.GranuleSize {
					t.Fatalf("caps[%d] does not hold the stored capability", g)
				}
				if revoke[g] {
					cur.Revoke(g)
				}
			}
		})

		if vg != vw || rg != rw {
			t.Fatalf("density %v: granule kernel (v=%d r=%d) vs word kernel (v=%d r=%d)",
				density, vg, rg, vw, rw)
		}
		if len(orderG) != len(orderW) {
			t.Fatalf("density %v: visit counts differ: %d vs %d", density, len(orderG), len(orderW))
		}
		for i := range orderG {
			if orderG[i] != orderW[i] {
				t.Fatalf("density %v: visit order diverges at %d: %d vs %d",
					density, i, orderG[i], orderW[i])
			}
		}
		for g := 0; g < GranulesPerPage; g++ {
			if pg.TagSet(fg, g) != pw.TagSet(fw, g) {
				t.Fatalf("density %v: final tag state differs at granule %d", density, g)
			}
		}
		if pg.TagCount(fg) != pw.TagCount(fw) || pg.HasTags(fg) != pw.HasTags(fw) {
			t.Fatalf("density %v: summary-backed counts differ", density)
		}
	}
}

// TestSweepTagsWordsFilterFallback pins the SweepFilter bridge (the fault
// class TagStaleRead arms one): with a filter hiding granules, the word
// kernel must fall back to per-granule dispatch — single-bit masks, one
// callback per surviving granule — and report exactly the granule kernel's
// visited/revoked counts. The filter here rejects granules that sit inside
// the would-be word intersection, so a kernel that pre-masked whole words
// would overcount visits.
func TestSweepTagsWordsFilterFallback(t *testing.T) {
	build := func() *Phys {
		p := NewPhys(1)
		f, _ := p.AllocFrame()
		_ = f
		fillRandom(p, f, rand.New(rand.NewSource(11)), 0.6)
		p.SweepFilter = func(id FrameID, g int, c ca.Capability) bool {
			return g%3 == 0 // hide a third of the tagged granules
		}
		return p
	}

	pg, pw := build(), build()
	vg, rg := pg.SweepTags(0, func(g int, c ca.Capability) bool { return g%2 == 0 })
	vw, rw := pw.SweepTagsWords(0, func(cur *SweepCursor, w int, mask uint64, caps WordCaps) {
		if bits.OnesCount64(mask) != 1 {
			t.Fatalf("filtered sweep passed a multi-bit mask %#x", mask)
		}
		g := w*64 + bits.TrailingZeros64(mask)
		if g%3 == 0 {
			t.Fatalf("filtered granule %d leaked through", g)
		}
		if g%2 == 0 {
			cur.Revoke(g)
		}
	})
	if vg != vw || rg != rw {
		t.Fatalf("filtered kernels diverge: granule (v=%d r=%d) vs word (v=%d r=%d)", vg, rg, vw, rw)
	}
	for g := 0; g < GranulesPerPage; g++ {
		if pg.TagSet(0, g) != pw.TagSet(0, g) {
			t.Fatalf("final tag state differs at granule %d", g)
		}
	}
}

// TestSweepCursorClearsImmediately pins the no-deferred-clears contract:
// a Revoke must be visible to tag reads before the callback returns, not
// batched to the end of the word — mid-word virtual-time yields let other
// threads observe tag state.
func TestSweepCursorClearsImmediately(t *testing.T) {
	p := NewPhys(1)
	f, _ := p.AllocFrame()
	p.StoreCap(f, 3, ca.NewRoot(3*ca.GranuleSize, 16, ca.PermsData))
	p.StoreCap(f, 9, ca.NewRoot(9*ca.GranuleSize, 16, ca.PermsData))
	p.SweepTagsWords(f, func(cur *SweepCursor, w int, mask uint64, caps WordCaps) {
		cur.Revoke(3)
		if p.TagSet(f, 3) {
			t.Fatal("Revoke(3) not visible inside the word callback")
		}
		if !p.TagSet(f, 9) {
			t.Fatal("unrevoked granule lost its tag mid-word")
		}
	})
	if p.TagCount(f) != 1 {
		t.Fatalf("TagCount = %d after revoking 1 of 2", p.TagCount(f))
	}
}

// TestFrameSummaryTracksTags is the summary invariant: after an arbitrary
// mix of capability stores, data stores and tag clears, the per-frame
// nonzero-word summary must agree with the brute-force scan that HasTags
// and TagCount used to do.
func TestFrameSummaryTracksTags(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewPhys(1)
	f, _ := p.AllocFrame()
	live := map[int]bool{}
	for i := 0; i < 5000; i++ {
		g := rng.Intn(GranulesPerPage)
		switch rng.Intn(4) {
		case 0:
			p.StoreCap(f, g, ca.NewRoot(uint64(g)*ca.GranuleSize, 16, ca.PermsData))
			live[g] = true
		case 1:
			p.StoreCap(f, g, ca.Null(0))
			delete(live, g)
		case 2:
			n := 1 + rng.Intn(8)
			if g+n > GranulesPerPage {
				n = GranulesPerPage - g
			}
			p.StoreData(f, g, n)
			for j := g; j < g+n; j++ {
				delete(live, j)
			}
		case 3:
			p.ClearTag(f, g)
			delete(live, g)
		}
	}
	if p.TagCount(f) != len(live) {
		t.Fatalf("TagCount = %d, brute force = %d", p.TagCount(f), len(live))
	}
	if p.HasTags(f) != (len(live) > 0) {
		t.Fatal("HasTags disagrees with brute force")
	}
	seen := 0
	p.ForEachTag(f, func(g int, c ca.Capability) {
		if !live[g] {
			t.Fatalf("ForEachTag visited dead granule %d", g)
		}
		seen++
	})
	if seen != len(live) {
		t.Fatalf("ForEachTag visited %d granules, want %d", seen, len(live))
	}
}
