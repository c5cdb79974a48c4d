package alloc

import (
	"testing"

	"repro/internal/ca"
	"repro/internal/kernel"
)

func TestReallocSameClassReturnsSame(t *testing.T) {
	withHeap(t, func(h *Heap, th *kernel.Thread) {
		c, _ := h.Alloc(th, 100)
		n, err := Realloc(h, th, c, 110) // same 112-byte class
		if err != nil {
			t.Fatal(err)
		}
		if n.Base() != c.Base() || n.Len() != c.Len() {
			t.Fatalf("in-place realloc moved: %v -> %v", c, n)
		}
	})
}

func TestReallocGrowsAndPreservesCapabilities(t *testing.T) {
	withHeap(t, func(h *Heap, th *kernel.Thread) {
		c, _ := h.Alloc(th, 64)
		inner, _ := h.Alloc(th, 32)
		if err := th.StoreCap(c, 16, inner); err != nil {
			t.Fatal(err)
		}
		n, err := Realloc(h, th, c, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if n.Len() < 4096 {
			t.Fatalf("realloc did not grow: %v", n)
		}
		// The embedded capability survived the copy with its tag.
		got, err := th.LoadCap(n, 16)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Tag() || got.Base() != inner.Base() {
			t.Fatalf("capability lost in realloc copy: %v", got)
		}
		// The old object was freed: its storage is reusable.
		c2, _ := h.Alloc(th, 64)
		if c2.Base() != c.Base() {
			t.Fatalf("old storage not recycled: %#x vs %#x", c2.Base(), c.Base())
		}
	})
}

func TestReallocShrinks(t *testing.T) {
	withHeap(t, func(h *Heap, th *kernel.Thread) {
		c, _ := h.Alloc(th, 2048)
		n, err := Realloc(h, th, c, 64)
		if err != nil {
			t.Fatal(err)
		}
		if n.Len() != RoundAlloc(64) {
			t.Fatalf("shrunk bounds %d", n.Len())
		}
	})
}

func TestReallocUntaggedAllocatesFresh(t *testing.T) {
	withHeap(t, func(h *Heap, th *kernel.Thread) {
		c, _ := h.Alloc(th, 64)
		n, err := Realloc(h, th, c.ClearTag(), 128)
		if err != nil {
			t.Fatal(err)
		}
		if !n.Tag() || n.Len() != 128 {
			t.Fatalf("fresh alloc wrong: %v", n)
		}
	})
}

func TestEmptySlabReclaimedAcrossClasses(t *testing.T) {
	withHeap(t, func(h *Heap, th *kernel.Thread) {
		// Fill an entire 64 KiB slab with 4096-byte objects, then free
		// them all: the emptied span must back a different class's slab
		// without growing the chunk count.
		n := SlabSize / 4096
		objs := make([]ca.Capability, 0, n)
		for i := 0; i < n; i++ {
			c, err := h.Alloc(th, 4096)
			if err != nil {
				t.Fatal(err)
			}
			objs = append(objs, c)
		}
		chunksBefore := h.Chunks()
		for _, c := range objs {
			if err := h.Free(th, c); err != nil {
				t.Fatal(err)
			}
		}
		// Allocate a different small class heavily; a fresh slab is
		// needed and should come from the reclaimed span.
		for i := 0; i < 64; i++ {
			if _, err := h.Alloc(th, 48); err != nil {
				t.Fatal(err)
			}
		}
		if h.Chunks() != chunksBefore {
			t.Fatalf("chunks grew %d -> %d despite a reclaimable span", chunksBefore, h.Chunks())
		}
	})
}

// TestEmptySlabReclaimedWithTail covers the classes whose size does not
// divide the slab: a fully carved class-48 slab ends 16 bytes short of
// its span, and freeing every object must still return the span to the
// chunk, where the next slab of another class reuses it.
func TestEmptySlabReclaimedWithTail(t *testing.T) {
	withHeap(t, func(h *Heap, th *kernel.Thread) {
		if ClassSize(SizeToClass(48)) != 48 || SlabSize%48 == 0 {
			t.Fatal("class 48 no longer leaves a tail in its slab")
		}
		n := SlabSize / 48
		objs := make([]ca.Capability, 0, n)
		for i := 0; i < n; i++ {
			c, err := h.Alloc(th, 48)
			if err != nil {
				t.Fatal(err)
			}
			objs = append(objs, c)
		}
		span := objs[0].Base()
		if last := objs[n-1].Base(); last != span+uint64(n-1)*48 {
			t.Fatalf("the %d objects do not fill one slab: first %#x, last %#x", n, span, last)
		}
		chunksBefore := h.Chunks()
		for _, c := range objs {
			if err := h.Free(th, c); err != nil {
				t.Fatal(err)
			}
		}
		c, err := h.Alloc(th, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if c.Base() != span {
			t.Fatalf("a 4096-byte object landed at %#x, not in the emptied class-48 span at %#x", c.Base(), span)
		}
		if h.Chunks() != chunksBefore {
			t.Fatalf("chunks grew %d -> %d despite a reclaimable span", chunksBefore, h.Chunks())
		}
	})
}
