package alloc

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ca"
	"repro/internal/kernel"
)

// liveModel mirrors the heap's small live objects as base → size and
// checks Heap.Lookup and the free-path error results against it.
type liveModel struct {
	t      *testing.T
	h      *Heap
	th     *kernel.Thread
	objs   map[uint64]uint64
	caps   map[uint64]ca.Capability
	sorted []uint64 // the bases of objs, ascending; nil when stale
}

// bases returns the live bases in ascending order.
func (m *liveModel) bases() []uint64 {
	if m.sorted == nil {
		m.sorted = make([]uint64, 0, len(m.objs))
		for b := range m.objs {
			m.sorted = append(m.sorted, b)
		}
		sort.Slice(m.sorted, func(i, j int) bool { return m.sorted[i] < m.sorted[j] })
	}
	return m.sorted
}

// want is the model's Lookup answer at addr: the live object containing
// it, which can only be the one with the greatest base at or below addr.
func (m *liveModel) want(addr uint64) (uint64, uint64, bool) {
	bs := m.bases()
	i := sort.Search(len(bs), func(i int) bool { return bs[i] > addr })
	if i > 0 && addr < bs[i-1]+m.objs[bs[i-1]] {
		return bs[i-1], m.objs[bs[i-1]], true
	}
	return 0, 0, false
}

// probe compares Lookup with the model at base, an interior address, the
// last byte and the first byte past an object of the given extent, whether
// or not the object is still live.
func (m *liveModel) probe(base, size uint64) {
	for _, addr := range []uint64{base, base + size/2, base + size - 1, base + size} {
		gb, gs, gok := m.h.Lookup(addr)
		wb, ws, wok := m.want(addr)
		if gb != wb || gs != ws || gok != wok {
			m.t.Fatalf("Lookup(%#x) near [%#x,+%d) = (%#x, %d, %v), model (%#x, %d, %v)",
				addr, base, size, gb, gs, gok, wb, ws, wok)
		}
	}
}

func (m *liveModel) probeAll() {
	for base, size := range m.objs {
		m.probe(base, size)
	}
}

func (m *liveModel) alloc(size uint64) ca.Capability {
	c, err := m.h.Alloc(m.th, size)
	if err != nil {
		m.t.Fatal(err)
	}
	for base, sz := range m.objs {
		if c.Base() < base+sz && base < c.Top() {
			m.t.Fatalf("allocation [%#x,%#x) overlaps live [%#x,%#x)", c.Base(), c.Top(), base, base+sz)
		}
	}
	m.objs[c.Base()] = c.Len()
	m.caps[c.Base()] = c
	m.sorted = nil
	return c
}

// free frees the object at base and checks the error results around it: a
// Release at a misaligned base of a live object and a Free through an
// interior-bounded capability are refused before the free, and a second
// Free after it is a double free.
func (m *liveModel) free(base uint64) {
	c, size := m.caps[base], m.objs[base]
	if size >= 2*MinAlloc {
		if err := m.h.Release(m.th, base+MinAlloc, size); !errors.Is(err, ErrDoubleFree) {
			m.t.Fatalf("Release at misaligned %#x: err = %v, want ErrDoubleFree", base+MinAlloc, err)
		}
		sub, err := c.AddAddr(MinAlloc).SetBounds(MinAlloc)
		if err != nil {
			m.t.Fatal(err)
		}
		if err := m.h.Free(m.th, sub); !errors.Is(err, ErrWildFree) {
			m.t.Fatalf("Free through interior %v: err = %v, want ErrWildFree", sub, err)
		}
	}
	if err := m.h.Free(m.th, c); err != nil {
		m.t.Fatalf("Free(%v): %v", c, err)
	}
	delete(m.objs, base)
	delete(m.caps, base)
	m.sorted = nil
	if err := m.h.Free(m.th, c); !errors.Is(err, ErrDoubleFree) {
		m.t.Fatalf("second Free(%v): err = %v, want ErrDoubleFree", c, err)
	}
	m.probe(base, size)
}

// spanOf returns the base of the slab span holding addr.
func (m *liveModel) spanOf(addr uint64) uint64 {
	ch, _, _ := m.h.find(addr)
	return ch.res.Base + (addr-ch.res.Base)/SlabSize*SlabSize
}

// TestSlabLivenessMatchesMap checks slab liveness against a map model: a
// seeded random mix of small allocations and frees, with Lookup compared at
// the edges of every live object after every step, the error results of
// double, interior and misaligned frees checked around every free, and a
// fully carved slab emptied so that its span is reclaimed and reused by
// another size class.
func TestSlabLivenessMatchesMap(t *testing.T) {
	withHeap(t, func(h *Heap, th *kernel.Thread) {
		m := &liveModel{t: t, h: h, th: th, objs: map[uint64]uint64{}, caps: map[uint64]ca.Capability{}}
		rng := rand.New(rand.NewSource(1))
		for step := 0; step < 1500; step++ {
			if len(m.objs) > 0 && rng.Intn(5) < 2 {
				bs := m.bases()
				m.free(bs[rng.Intn(len(bs))])
			} else {
				// Mostly the granule-sized classes, some of every class
				// up to 2 KiB; the larger classes are left for the reuse
				// check below.
				size := uint64(1 + rng.Intn(128))
				if rng.Intn(4) == 0 {
					size = uint64(1 + rng.Intn(MaxSmall/2))
				}
				m.alloc(size)
			}
			m.probeAll()
		}

		// Carve a whole 4 KiB-class slab, empty it so that it is
		// reclaimed, and let the 3 KiB class, which no slab serves yet,
		// take its span.
		for _, b := range m.bases() {
			m.free(b)
		}
		var span []uint64
		for i := 0; i < SlabSize/MaxSmall; i++ {
			span = append(span, m.alloc(MaxSmall).Base())
		}
		spanBase := m.spanOf(span[0])
		for _, b := range span {
			if m.spanOf(b) != spanBase {
				t.Fatalf("object %#x outside the slab at %#x", b, spanBase)
			}
		}
		for _, b := range span {
			m.free(b)
			m.probeAll()
		}
		reused := m.alloc(3 * MaxSmall / 4)
		if reused.Len() != 3*MaxSmall/4 || reused.Base() != spanBase {
			t.Fatalf("the 3 KiB class took [%#x,+%d), not the reclaimed span at %#x", reused.Base(), reused.Len(), spanBase)
		}
		for _, b := range span {
			m.probe(b, MaxSmall)
		}
		m.probeAll()
		m.free(reused.Base())
	})
}
