package shadow

import (
	"math/rand"
	"testing"

	"repro/internal/ca"
)

// wideAuth covers several chunks so tests can paint across chunk
// boundaries (one chunk spans 64 KiB of address space).
func wideAuth() ca.Capability {
	return ca.NewRoot(0, 1<<24, ca.PermsData|ca.PermPaint)
}

const wordSpan = 64 * ca.GranuleSize

// TestPaintedWordMatchesTest is the word/bit equivalence property: for any
// painted pattern, every bit of PaintedWord must agree with the
// per-granule Test the granule kernel uses.
func TestPaintedWordMatchesTest(t *testing.T) {
	b := New()
	a := wideAuth()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 400; i++ {
		addr := uint64(rng.Intn(1<<19)) * ca.GranuleSize
		n := uint64(1+rng.Intn(100)) * ca.GranuleSize
		if err := b.Paint(a, addr, n); err != nil {
			t.Fatal(err)
		}
	}
	for base := uint64(0); base < (1<<19+256)*ca.GranuleSize; base += wordSpan {
		word := b.PaintedWord(base)
		for bit := uint64(0); bit < 64; bit++ {
			gaddr := base + bit*ca.GranuleSize
			if got, want := word&(1<<bit) != 0, b.Test(gaddr); got != want {
				t.Fatalf("PaintedWord(0x%x) bit %d = %v, Test(0x%x) = %v", base, bit, got, gaddr, want)
			}
		}
	}
}

// TestPaintedWordUnaligned pins that any address inside a word returns the
// same mask as its aligned base — the kernel probes with capability bases,
// not word-aligned addresses.
func TestPaintedWordUnaligned(t *testing.T) {
	b := New()
	if err := b.Paint(wideAuth(), 0x2000, 3*ca.GranuleSize); err != nil {
		t.Fatal(err)
	}
	base := uint64(0x2000) &^ (wordSpan - 1)
	want := b.PaintedWord(base)
	if want == 0 {
		t.Fatal("painted word reads zero")
	}
	for off := uint64(0); off < wordSpan; off += ca.GranuleSize {
		if got := b.PaintedWord(base + off); got != want {
			t.Fatalf("PaintedWord(base+0x%x) = %#x, want %#x", off, got, want)
		}
	}
}

// TestPaintedWordCacheInvalidation exercises the single-entry chunk cache:
// positive and negative entries must both be dropped by paints and
// unpaints, including the trap case of a negative entry for a chunk that a
// later paint materializes.
func TestPaintedWordCacheInvalidation(t *testing.T) {
	b := New()
	a := wideAuth()

	// Negative entry first: the chunk for this address does not exist yet.
	if got := b.PaintedWord(0x100000); got != 0 {
		t.Fatalf("empty bitmap PaintedWord = %#x", got)
	}
	// Materialize that very chunk; the stale nil entry must not mask it.
	if err := b.Paint(a, 0x100000, ca.GranuleSize); err != nil {
		t.Fatal(err)
	}
	if got := b.PaintedWord(0x100000); got == 0 {
		t.Fatal("paint invisible through stale negative cache entry")
	}

	// Positive entry, then unpaint: the cached chunk pointer stays valid
	// but the word content changed; the read must see the clear.
	if err := b.Unpaint(a, 0x100000, ca.GranuleSize); err != nil {
		t.Fatal(err)
	}
	if got := b.PaintedWord(0x100000); got != 0 {
		t.Fatalf("unpaint invisible: PaintedWord = %#x", got)
	}

	// Cache follows chunk switches: alternate between two chunks.
	if err := b.Paint(a, 0, ca.GranuleSize); err != nil { // chunk 0
		t.Fatal(err)
	}
	const otherChunk = chunkGranules * ca.GranuleSize // chunk 1 start
	if err := b.Paint(a, otherChunk, 2*ca.GranuleSize); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got := b.PaintedWord(0); got != 1 {
			t.Fatalf("chunk 0 word = %#x, want 1", got)
		}
		if got := b.PaintedWord(otherChunk); got != 3 {
			t.Fatalf("chunk 1 word = %#x, want 3", got)
		}
	}

	// Clone must not share cache state observable through mutation.
	c := b.Clone()
	if err := b.Unpaint(a, 0, ca.GranuleSize); err != nil {
		t.Fatal(err)
	}
	if got := c.PaintedWord(0); got != 1 {
		t.Fatalf("clone lost its painted bit: %#x", got)
	}
}

// TestForEachPaintedAscendingAcrossChunks pins ForEachPainted's ordering
// contract: granules painted across several chunks, in shuffled order,
// come back as one strictly ascending address stream with nothing missing;
// returning false stops the walk immediately.
func TestForEachPaintedAscendingAcrossChunks(t *testing.T) {
	b := New()
	a := wideAuth()
	var want []uint64
	for chunk := 0; chunk < 3; chunk++ {
		for _, g := range []uint64{0, 1, 63, 64, 65, chunkGranules - 1} {
			want = append(want, (uint64(chunk)*chunkGranules+g)*ca.GranuleSize)
		}
	}
	shuffled := append([]uint64(nil), want...)
	rand.New(rand.NewSource(9)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for _, addr := range shuffled {
		if err := b.Paint(a, addr, ca.GranuleSize); err != nil {
			t.Fatal(err)
		}
	}

	var got []uint64
	b.ForEachPainted(func(addr uint64) bool {
		got = append(got, addr)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("visited %d granules, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("visit %d = 0x%x, want 0x%x (ascending across chunks)", i, got[i], want[i])
		}
		if i > 0 && got[i] <= got[i-1] {
			t.Fatalf("iteration not strictly ascending at %d: 0x%x after 0x%x", i, got[i], got[i-1])
		}
	}

	// Early stop: the walk must end at the first false.
	calls := 0
	b.ForEachPainted(func(addr uint64) bool {
		calls++
		return calls < 4
	})
	if calls != 4 {
		t.Fatalf("early-stop walk made %d calls, want 4", calls)
	}
}
