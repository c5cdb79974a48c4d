package shadow

import (
	"math/rand"
	"testing"

	"repro/internal/ca"
)

// hugeAuth spans many chunk groups (one group word covers 64 chunks =
// 4 MiB of address space), so tests can paint across group boundaries.
func hugeAuth() ca.Capability {
	return ca.NewRoot(0, 1<<28, ca.PermsData|ca.PermPaint)
}

const chunkSpan = chunkGranules * ca.GranuleSize

// TestChunkCacheInvalidatedByFree is the satellite regression for the
// single-entry chunk cache: freeing a chunk (last painted bit cleared)
// while the cache points at it, then recycling that chunk's storage for a
// different address range, must not let PaintedWord serve the recycled
// chunk's contents through the stale cache entry.
func TestChunkCacheInvalidatedByFree(t *testing.T) {
	b := New()
	a := hugeAuth()
	addrA := uint64(3 * chunkSpan)       // chunk 3
	addrB := uint64(7*chunkSpan + 0x400) // chunk 7, same word offset pattern
	if err := b.Paint(a, addrA, ca.GranuleSize); err != nil {
		t.Fatal(err)
	}
	if b.PaintedWord(addrA) == 0 { // primes the cache on chunk 3
		t.Fatal("painted word reads zero")
	}
	// Unpainting the only bit frees chunk 3 and recycles its storage, so
	// the next paint below reuses the same *chunk.
	if err := b.Unpaint(a, addrA, ca.GranuleSize); err != nil {
		t.Fatal(err)
	}
	if err := b.Paint(a, addrB, ca.GranuleSize); err != nil {
		t.Fatal(err)
	}
	if got := b.PaintedWord(addrA); got != 0 {
		t.Fatalf("PaintedWord of freed chunk = %#x via stale cache, want 0", got)
	}
	if b.Test(addrA) {
		t.Fatal("Test of freed chunk reads painted")
	}
	if b.PaintedWord(addrB) == 0 || !b.Test(addrB) {
		t.Fatal("repainted chunk lost its bit")
	}
	if b.ChunkCount() != 1 {
		t.Fatalf("%d chunks live, want 1", b.ChunkCount())
	}
}

// TestForEachPaintedAscendingAcrossGroups pins the iteration order of the
// group→chunk→word descent at its seams: granules painted (in scrambled
// order) around chunk boundaries and chunk-group boundaries must come back
// strictly ascending and complete.
func TestForEachPaintedAscendingAcrossGroups(t *testing.T) {
	b := New()
	a := hugeAuth()
	addrs := []uint64{
		0,                          // chunk 0, group 0
		63*chunkSpan + 0x1000,      // last chunk of group 0
		64 * chunkSpan,             // first chunk of group 1
		64*chunkSpan + chunkSpan/2, // mid-chunk
		127*chunkSpan + 0x40,       // last chunk of group 1
		128 * chunkSpan,            // group 2
		130*chunkSpan + 0x7f0,
	}
	perm := rand.New(rand.NewSource(9)).Perm(len(addrs))
	for _, i := range perm {
		if err := b.Paint(a, addrs[i], ca.GranuleSize); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	b.ForEachPainted(func(addr uint64) bool {
		got = append(got, addr)
		return true
	})
	if len(got) != len(addrs) {
		t.Fatalf("visited %d granules, want %d", len(got), len(addrs))
	}
	for i, addr := range got {
		want := addrs[i] &^ (ca.GranuleSize - 1)
		if addr != want {
			t.Fatalf("position %d: got %#x, want %#x", i, addr, want)
		}
		if i > 0 && addr <= got[i-1] {
			t.Fatalf("not ascending: %#x after %#x", addr, got[i-1])
		}
	}
}

// TestFlatFastSetEquivalence is the differential suite for set: the
// word-masked production path and the granule-by-granule reference
// (setFlat, reference_test.go) must leave bit-identical bitmaps — same
// Test and PaintedWord answers, same painted counts, same chunk
// population, same ForEachPaintedWord stream — after any randomized
// paint/unpaint history.
func TestFlatFastSetEquivalence(t *testing.T) {
	a := hugeAuth()
	fast, flat := New(), New()
	rng := rand.New(rand.NewSource(77))
	span := uint64(140 * chunkSpan) // ~3 chunk groups
	for i := 0; i < 3000; i++ {
		addr := uint64(rng.Int63n(int64(span/ca.GranuleSize))) * ca.GranuleSize
		n := uint64(1+rng.Intn(3*chunkGranules/2)) * ca.GranuleSize
		if addr+n > span {
			n = span - addr
		}
		paint := rng.Intn(3) > 0
		var err error
		if paint {
			err = fast.Paint(a, addr, n)
		} else {
			err = fast.Unpaint(a, addr, n)
		}
		if err != nil {
			t.Fatal(err)
		}
		flat.setFlat(addr, n, paint)
	}
	if fast.PaintedGranules() != flat.PaintedGranules() {
		t.Fatalf("painted granules: fast %d, flat %d", fast.PaintedGranules(), flat.PaintedGranules())
	}
	if fast.ChunkCount() != flat.ChunkCount() {
		t.Fatalf("chunk count: fast %d, flat %d", fast.ChunkCount(), flat.ChunkCount())
	}
	type wm struct{ base, mask uint64 }
	collect := func(b *Bitmap) []wm {
		var out []wm
		b.ForEachPaintedWord(func(base, mask uint64) bool {
			out = append(out, wm{base, mask})
			return true
		})
		return out
	}
	fw, lw := collect(fast), collect(flat)
	if len(fw) != len(lw) {
		t.Fatalf("painted-word stream length: fast %d, flat %d", len(fw), len(lw))
	}
	for i := range fw {
		if fw[i] != lw[i] {
			t.Fatalf("word %d: fast {%#x %#x}, flat {%#x %#x}",
				i, fw[i].base, fw[i].mask, lw[i].base, lw[i].mask)
		}
	}
	// Spot-probe Test and PaintedWord agreement over a deterministic sample.
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Int63n(int64(span/ca.GranuleSize))) * ca.GranuleSize
		if fast.Test(addr) != flat.Test(addr) {
			t.Fatalf("Test(%#x): fast %v, flat %v", addr, fast.Test(addr), flat.Test(addr))
		}
		if fw, lw := fast.PaintedWord(addr), flat.PaintedWord(addr); fw != lw {
			t.Fatalf("PaintedWord(%#x): fast %#x, flat %#x", addr, fw, lw)
		}
	}
}
