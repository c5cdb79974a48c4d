package shadow

import (
	"errors"
	"testing"

	"repro/internal/ca"
)

// TestPaintPermErrorTyped pins the error identity: painting without
// PermPaint is a permission escalation, and Unpaint enforces the same
// authority checks as Paint.
func TestPaintPermErrorTyped(t *testing.T) {
	b := New()
	noPaint := ca.NewRoot(0x10000, 1<<20, ca.PermsData)
	if err := b.Paint(noPaint, 0x10000, 16); !errors.Is(err, ca.ErrPermEscalation) {
		t.Fatalf("Paint without PermPaint: got %v, want ErrPermEscalation", err)
	}
	if err := b.Unpaint(noPaint, 0x10000, 16); !errors.Is(err, ca.ErrPermEscalation) {
		t.Fatalf("Unpaint without PermPaint: got %v, want ErrPermEscalation", err)
	}
	if err := b.Paint(noPaint.ClearTag(), 0x10000, 16); !errors.Is(err, ca.ErrTagCleared) {
		t.Fatalf("Paint with untagged authority: got %v, want ErrTagCleared", err)
	}
}

// TestPaintBoundsViolations covers both ends of the authority range,
// including a length that runs exactly one granule past the top.
func TestPaintBoundsViolations(t *testing.T) {
	b := New()
	a := ca.NewRoot(0x10000, 1<<10, ca.PermPaint) // [0x10000, 0x10400)
	if err := b.Paint(a, 0x10000-ca.GranuleSize, ca.GranuleSize); err == nil {
		t.Fatal("paint one granule below base allowed")
	}
	if err := b.Paint(a, 0x10400, ca.GranuleSize); err == nil {
		t.Fatal("paint starting at top allowed")
	}
	if err := b.Paint(a, 0x10400-ca.GranuleSize, 2*ca.GranuleSize); err == nil {
		t.Fatal("paint straddling top allowed")
	}
	if err := b.Paint(a, 0x10000, 1<<10); err != nil {
		t.Fatalf("full-range paint rejected: %v", err)
	}
	if got := b.CountPaintedInRange(0x10000, 1<<10); got != (1<<10)/int(ca.GranuleSize) {
		t.Fatalf("full-range paint set %d granules", got)
	}
}

// TestChunkEdgeStraddle paints a span straddling the 64 KiB chunk
// boundary and probes granules on both sides of the edge.
func TestChunkEdgeStraddle(t *testing.T) {
	b := New()
	a := ca.NewRoot(0, 1<<32, ca.PermPaint)
	edge := uint64(chunkGranules) * ca.GranuleSize // 64 KiB: first addr of chunk 1
	start := edge - 2*ca.GranuleSize
	if err := b.Paint(a, start, 4*ca.GranuleSize); err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < 4; off++ {
		if !b.Test(start + off*ca.GranuleSize) {
			t.Fatalf("granule %d of the straddle not painted", off)
		}
	}
	if b.Test(start-ca.GranuleSize) || b.Test(edge+2*ca.GranuleSize) {
		t.Fatal("paint leaked outside the straddle")
	}
	if got := b.CountPaintedInRange(start-ca.GranuleSize, 6*ca.GranuleSize); got != 4 {
		t.Fatalf("count across the edge = %d, want 4", got)
	}
	if err := b.Unpaint(a, start, 4*ca.GranuleSize); err != nil {
		t.Fatal(err)
	}
	if b.PaintedGranules() != 0 {
		t.Fatalf("straddle unpaint left %d granules", b.PaintedGranules())
	}
}

// TestNeverPaintedChunkProbe probes a chunk that has never had a bit set:
// no chunk storage exists and every query must report clean.
func TestNeverPaintedChunkProbe(t *testing.T) {
	b := New()
	a := ca.NewRoot(0, 1<<32, ca.PermPaint)
	if err := b.Paint(a, 0x1000, 64); err != nil { // chunk 0 only
		t.Fatal(err)
	}
	far := uint64(3) * uint64(chunkGranules) * ca.GranuleSize // chunk 3: untouched
	if b.Test(far) || b.Test(far+ca.GranuleSize) {
		t.Fatal("probe of a never-painted chunk returned painted")
	}
	if b.AnyPaintedInRange(far, chunkSpan) {
		t.Fatal("AnyPaintedInRange true over a never-painted chunk")
	}
	if got := b.CountPaintedInRange(far, chunkSpan); got != 0 {
		t.Fatalf("CountPaintedInRange over a never-painted chunk = %d", got)
	}
	visited := 0
	b.ForEachPainted(func(addr uint64) bool {
		if addr >= far {
			t.Fatalf("ForEachPainted visited never-painted chunk at %#x", addr)
		}
		visited++
		return true
	})
	if visited != 4 {
		t.Fatalf("ForEachPainted visited %d granules, want 4", visited)
	}
}
