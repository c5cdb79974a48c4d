package tmem

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/ca"
)

func mustAlloc(t *testing.T, p *Phys) FrameID {
	t.Helper()
	id, err := p.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestAllocFreeReuse(t *testing.T) {
	p := NewPhys(2)
	a := mustAlloc(t, p)
	b := mustAlloc(t, p)
	if _, err := p.AllocFrame(); err == nil {
		t.Fatal("allocation beyond maxFrames succeeded")
	}
	if p.Allocated() != 2 || p.PeakAllocated() != 2 {
		t.Fatalf("allocated = %d peak = %d", p.Allocated(), p.PeakAllocated())
	}
	p.FreeFrame(a)
	c := mustAlloc(t, p)
	if c != a {
		t.Fatalf("freed frame not reused: got %d want %d", c, a)
	}
	if p.PeakAllocated() != 2 {
		t.Fatalf("peak = %d, want 2", p.PeakAllocated())
	}
	_ = b
}

func TestFreedFrameTagsCleared(t *testing.T) {
	p := NewPhys(4)
	a := mustAlloc(t, p)
	p.StoreCap(a, 7, ca.NewRoot(0x1000, 64, ca.PermsData))
	p.FreeFrame(a)
	b := mustAlloc(t, p)
	if b != a {
		t.Fatalf("expected frame reuse, got %d want %d", b, a)
	}
	if p.TagSet(b, 7) {
		t.Fatal("capability leaked through frame reuse")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	p := NewPhys(1)
	a := mustAlloc(t, p)
	p.FreeFrame(a)
	defer func() {
		want := fmt.Sprintf("tmem: double free of frame %d", a)
		if r := recover(); r != want {
			t.Fatalf("double free panicked with %v, want %q", r, want)
		}
	}()
	p.FreeFrame(a)
}

func TestStoreLoadCapRoundTrip(t *testing.T) {
	p := NewPhys(4)
	f := mustAlloc(t, p)
	c := ca.NewRoot(0xdead0, 128, ca.PermsData)
	p.StoreCap(f, 3, c)
	if !p.TagSet(f, 3) {
		t.Fatal("tag not set after capability store")
	}
	got := p.LoadCap(f, 3)
	if !got.Tag() || got.Base() != c.Base() || got.Top() != c.Top() {
		t.Fatalf("loaded %v, want %v", got, c)
	}
	if p.LoadCap(f, 4).Tag() {
		t.Fatal("adjacent granule reads tagged")
	}
}

func TestDataStoreClearsTags(t *testing.T) {
	p := NewPhys(4)
	f := mustAlloc(t, p)
	for g := 0; g < 4; g++ {
		p.StoreCap(f, g, ca.NewRoot(uint64(g)*16, 16, ca.PermsData))
	}
	p.StoreData(f, 1, 2)
	want := []bool{true, false, false, true}
	for g, w := range want {
		if p.TagSet(f, g) != w {
			t.Fatalf("granule %d tag = %v, want %v", g, p.TagSet(f, g), w)
		}
	}
}

func TestStoreUntaggedClearsTag(t *testing.T) {
	p := NewPhys(4)
	f := mustAlloc(t, p)
	p.StoreCap(f, 0, ca.NewRoot(0, 16, ca.PermsData))
	p.StoreCap(f, 0, ca.Null(99))
	if p.TagSet(f, 0) {
		t.Fatal("untagged store left tag set")
	}
	if p.LoadCap(f, 0).Tag() {
		t.Fatal("load after untagged store returned tagged value")
	}
}

func TestSweepTags(t *testing.T) {
	p := NewPhys(4)
	f := mustAlloc(t, p)
	for _, g := range []int{0, 5, 63, 64, 200, 255} {
		p.StoreCap(f, g, ca.NewRoot(uint64(g)*ca.GranuleSize, 16, ca.PermsData))
	}
	// Revoke capabilities whose base is below granule 100.
	visited, revoked := p.SweepTags(f, func(g int, c ca.Capability) bool {
		return c.Base() < 100*ca.GranuleSize
	})
	if visited != 6 || revoked != 4 {
		t.Fatalf("visited %d revoked %d, want 6 and 4", visited, revoked)
	}
	if p.TagSet(f, 5) {
		t.Fatal("revoked granule still tagged")
	}
	if !p.TagSet(f, 200) || !p.TagSet(f, 255) {
		t.Fatal("surviving granules lost tags")
	}
	if p.TagCount(f) != 2 {
		t.Fatalf("TagCount = %d, want 2", p.TagCount(f))
	}
}

func TestSweepEmptyFrame(t *testing.T) {
	p := NewPhys(1)
	f := mustAlloc(t, p)
	v, r := p.SweepTags(f, func(int, ca.Capability) bool { return true })
	if v != 0 || r != 0 {
		t.Fatalf("sweep of clean frame visited %d revoked %d", v, r)
	}
	if p.HasTags(f) {
		t.Fatal("clean frame HasTags")
	}
}

func TestColors(t *testing.T) {
	p := NewPhys(1)
	f := mustAlloc(t, p)
	if p.ColorOf(f, 10) != 0 {
		t.Fatal("fresh frame has nonzero color")
	}
	p.SetColor(f, 8, 4, 3)
	if p.ColorOf(f, 7) != 0 || p.ColorOf(f, 8) != 3 || p.ColorOf(f, 11) != 3 || p.ColorOf(f, 12) != 0 {
		t.Fatal("color range wrong")
	}
	// Colors survive data stores.
	p.StoreData(f, 8, 4)
	if p.ColorOf(f, 9) != 3 {
		t.Fatal("data store erased color")
	}
}

// Property: after any sequence of stores, SweepTags visits exactly the
// granules whose most recent write was a tagged capability.
func TestQuickSweepMatchesHistory(t *testing.T) {
	f := func(ops []uint16) bool {
		p := NewPhys(1)
		fr, _ := p.AllocFrame()
		expect := map[int]bool{}
		for _, op := range ops {
			g := int(op) % GranulesPerPage
			switch (op >> 8) % 3 {
			case 0:
				p.StoreCap(fr, g, ca.NewRoot(uint64(g)*ca.GranuleSize, 16, ca.PermsData))
				expect[g] = true
			case 1:
				p.StoreCap(fr, g, ca.Null(uint64(op)))
				delete(expect, g)
			case 2:
				p.StoreData(fr, g, 1)
				delete(expect, g)
			}
		}
		seen := map[int]bool{}
		p.SweepTags(fr, func(g int, c ca.Capability) bool {
			seen[g] = true
			return false
		})
		if len(seen) != len(expect) {
			return false
		}
		for g := range expect {
			if !seen[g] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSweepDensePage(b *testing.B) {
	p := NewPhys(1)
	f, _ := p.AllocFrame()
	for g := 0; g < GranulesPerPage; g++ {
		p.StoreCap(f, g, ca.NewRoot(uint64(g)*16, 16, ca.PermsData))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SweepTags(f, func(int, ca.Capability) bool { return false })
	}
}

// TestFrameSurvivesChunkGrowth pins the chunked frame table: a *frame
// taken before the table grows across chunk boundaries still addresses the
// same frame afterwards, so a write through it is seen by every accessor.
func TestFrameSurvivesChunkGrowth(t *testing.T) {
	p := NewPhys(3 * frameChunk)
	var id FrameID
	for p.FrameCount() < frameChunk-1 {
		id = mustAlloc(t, p)
	}
	p.StoreCap(id, 3, ca.NewRoot(0x1000, 16, ca.PermsData))
	f := p.frame(id)
	for p.FrameCount() < 2*frameChunk+1 {
		mustAlloc(t, p)
	}
	if n := len(p.chunks); n != 3 {
		t.Fatalf("%d frames fill %d chunks, want 3", p.FrameCount(), n)
	}
	if p.frame(id) != f {
		t.Fatal("frame moved when the table grew")
	}
	f.clearTag(0, 1<<3)
	if p.TagSet(id, 3) || p.HasTags(id) {
		t.Fatal("a tag clear through the pointer taken before the growth was lost")
	}
}

// TestSweepSurvivesFrameTableGrowth pins the stable-frame-pointer
// guarantee: a sweep caught mid-page by frame-table growth (an app-thread
// demand map during a virtual-time yield) must not lose its tag clears to
// a relocated backing array. With value-typed frame storage this test
// leaks every tag cleared after the growth.
func TestSweepSurvivesFrameTableGrowth(t *testing.T) {
	p := NewPhys(1 << 12)
	id := mustAlloc(t, p)
	for g := 0; g < 100; g++ {
		p.StoreCap(id, g, ca.NewRoot(uint64(g)*ca.GranuleSize, 16, ca.PermsData))
	}
	grown := false
	visited, revoked := p.SweepTags(id, func(g int, c ca.Capability) bool {
		if !grown {
			// Grow the frame table well past any append capacity step
			// while the sweep holds its view of frame id.
			for i := 0; i < 1000; i++ {
				mustAlloc(t, p)
			}
			grown = true
		}
		return true
	})
	if visited != 100 || revoked != 100 {
		t.Fatalf("visited %d revoked %d, want 100/100", visited, revoked)
	}
	if p.TagCount(id) != 0 {
		t.Fatalf("%d tags survived a full revoking sweep across frame-table growth", p.TagCount(id))
	}
}

// TestCapBlockFillsSizeClass pins the 64-slot capability block at 2,048
// bytes, which is one of Go's allocation size classes, so a block wastes no
// tail. A 40-byte capability would make it 2,560 bytes, rounded up to the
// 2,688-byte class.
func TestCapBlockFillsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof([64]ca.Capability{}); size != 2048 {
		t.Fatalf("capability block is %d bytes, want 2048", size)
	}
}

// allocatedSize returns the bytes Go's allocator hands out for one new(T):
// T's size rounded up to its size class. Other allocations during a round
// can only add to it, so the least of three rounds is taken.
func allocatedSize[T any]() uint64 {
	const n = 4096
	least := ^uint64(0)
	for round := 0; round < 3; round++ {
		objs := make([]*T, n)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range objs {
			objs[i] = new(T)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(objs)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/n)
	}
	return least
}

// TestCapStorageSizes pins the host layout of capability storage: a frame
// is 64 bytes, one host cache line (a chunk of the frame table is
// page-aligned, so no frame straddles two lines); a directory is four
// 32-byte word entries; a 1-slot block is 32 bytes and a 16-slot block
// 512; and the directory and the blocks each fill a Go size class, so
// none wastes a tail.
func TestCapStorageSizes(t *testing.T) {
	if size := unsafe.Sizeof(frame{}); size != 64 {
		t.Errorf("frame is %d bytes, want 64", size)
	}
	if size := unsafe.Sizeof(capDir{}); size != 128 {
		t.Errorf("directory is %d bytes, want 128", size)
	}
	if size := unsafe.Sizeof([1]ca.Capability{}); size != 32 {
		t.Errorf("1-slot capability block is %d bytes, want 32", size)
	}
	if size := unsafe.Sizeof([16]ca.Capability{}); size != 512 {
		t.Errorf("16-slot capability block is %d bytes, want 512", size)
	}
	if size, got := uint64(unsafe.Sizeof([1]ca.Capability{})), allocatedSize[[1]ca.Capability](); got != size {
		t.Errorf("a 1-slot block of %d bytes takes %d from the allocator", size, got)
	}
	if size, got := uint64(unsafe.Sizeof([16]ca.Capability{})), allocatedSize[[16]ca.Capability](); got != size {
		t.Errorf("a 16-slot block of %d bytes takes %d from the allocator", size, got)
	}
	if size, got := uint64(unsafe.Sizeof(capDir{})), allocatedSize[capDir](); got != size {
		t.Errorf("a directory of %d bytes takes %d from the allocator", size, got)
	}
}
