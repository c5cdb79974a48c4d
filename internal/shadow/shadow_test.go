package shadow

import (
	"testing"
	"testing/quick"

	"repro/internal/ca"
)

func auth() ca.Capability {
	return ca.NewRoot(0x10000, 1<<20, ca.PermsData|ca.PermPaint)
}

func TestPaintTestUnpaint(t *testing.T) {
	b := New()
	a := auth()
	if err := b.Paint(a, 0x10000, 64); err != nil {
		t.Fatal(err)
	}
	if !b.Test(0x10000) || !b.Test(0x10030) {
		t.Fatal("painted granules not set")
	}
	if b.Test(0x10040) {
		t.Fatal("bit beyond painted range set")
	}
	if b.PaintedBytes() != 64 {
		t.Fatalf("painted bytes = %d, want 64", b.PaintedBytes())
	}
	if err := b.Unpaint(a, 0x10000, 64); err != nil {
		t.Fatal(err)
	}
	if b.Test(0x10000) || b.PaintedGranules() != 0 {
		t.Fatal("unpaint incomplete")
	}
}

func TestPaintRequiresAuthority(t *testing.T) {
	b := New()
	noPaint := ca.NewRoot(0x10000, 1<<20, ca.PermsData)
	if err := b.Paint(noPaint, 0x10000, 16); err == nil {
		t.Fatal("paint without PermPaint allowed")
	}
	a := auth()
	if err := b.Paint(a, 0x8000, 16); err == nil {
		t.Fatal("paint below authority bounds allowed")
	}
	if err := b.Paint(a.ClearTag(), 0x10000, 16); err == nil {
		t.Fatal("paint with untagged authority allowed")
	}
	if b.PaintedGranules() != 0 {
		t.Fatal("unauthorized paint took effect")
	}
}

func TestPaintRejectsMisaligned(t *testing.T) {
	b := New()
	if err := b.Paint(auth(), 0x10008, 16); err == nil {
		t.Fatal("misaligned paint allowed")
	}
	if err := b.Paint(auth(), 0x10000, 24); err == nil {
		t.Fatal("misaligned length allowed")
	}
}

func TestDoublePaintIdempotent(t *testing.T) {
	b := New()
	a := auth()
	b.Paint(a, 0x10000, 32)
	b.Paint(a, 0x10000, 32)
	if b.PaintedGranules() != 2 {
		t.Fatalf("painted = %d, want 2", b.PaintedGranules())
	}
}

func TestRangeQueries(t *testing.T) {
	b := New()
	a := auth()
	b.Paint(a, 0x20000, 16)
	b.Paint(a, 0x20040, 32)
	if !b.AnyPaintedInRange(0x20000, 0x100) {
		t.Fatal("AnyPaintedInRange missed bits")
	}
	if b.AnyPaintedInRange(0x20010, 0x30) {
		t.Fatal("AnyPaintedInRange false positive")
	}
	if got := b.CountPaintedInRange(0x20000, 0x100); got != 3 {
		t.Fatalf("CountPaintedInRange = %d, want 3", got)
	}
}

func TestCountAcrossChunks(t *testing.T) {
	b := New()
	a := ca.NewRoot(0, 1<<32, ca.PermPaint)
	// Paint a run spanning a chunk boundary (chunk covers 64 KiB).
	start := uint64(chunkSpan) - 64
	if err := b.Paint(a, start, 128); err != nil {
		t.Fatal(err)
	}
	if got := b.CountPaintedInRange(0, 1<<21); got != 8 {
		t.Fatalf("count = %d, want 8", got)
	}
}

func TestVAOfMonotone(t *testing.T) {
	if VAOf(0x10000) >= VAOf(0x20000) {
		t.Fatal("VAOf not monotone")
	}
	if VAOf(0)+1 != VAOf(128) {
		t.Fatalf("VAOf density wrong: %#x %#x", VAOf(0), VAOf(128))
	}
}

// Property: paint/unpaint round-trips leave the bitmap empty, and Test
// agrees with a reference model.
func TestQuickPaintModel(t *testing.T) {
	a := ca.NewRoot(0, 1<<30, ca.PermPaint)
	f := func(ops []uint32) bool {
		b := New()
		ref := map[uint64]bool{}
		for _, op := range ops {
			addr := uint64(op&0xffff) * ca.GranuleSize
			n := uint64(op>>16)%8 + 1
			if op&0x80000000 != 0 {
				b.Paint(a, addr, n*ca.GranuleSize)
				for i := uint64(0); i < n; i++ {
					ref[addr+i*ca.GranuleSize] = true
				}
			} else {
				b.Unpaint(a, addr, n*ca.GranuleSize)
				for i := uint64(0); i < n; i++ {
					delete(ref, addr+i*ca.GranuleSize)
				}
			}
		}
		count := uint64(0)
		for addr, v := range ref {
			if v {
				count++
				if !b.Test(addr) {
					return false
				}
			}
		}
		return b.PaintedGranules() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTest(b *testing.B) {
	bm := New()
	bm.Paint(auth(), 0x10000, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Test(0x10000 + uint64(i%4096)*16)
	}
}
