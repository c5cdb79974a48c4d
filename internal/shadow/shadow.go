// Package shadow implements the revocation bitmap (§2.2.2): one bit per
// capability-sized granule of address space. A set bit marks the granule's
// address as quarantined; any valid capability whose base falls on a marked
// granule is subject to revocation.
//
// The bitmap is a kernel-provided object painted by user-space allocators
// and read by the kernel's revoker. Access is capability-gated as in
// Cornucopia's appendix A: painting requires a capability with PermPaint
// whose bounds cover the painted range, so allocators can only quarantine
// their own heaps.
//
// Storage is chunked, sparse and hierarchical: each 64 KiB chunk carries a
// nonzero-word summary (one bit per 64-granule word, so one summary word),
// and a chunk-group index (one bit per present chunk, 64 chunks — 4 MiB —
// per group word) sits above the chunks, each group word next to the
// pointers of the chunks it marks. Whole-bitmap iteration therefore skips
// empty spans at every level and costs O(painted words), not
// O(address-space size); chunks whose last bit is cleared are freed back
// to a pool, and groups whose last chunk is freed likewise, so the
// bitmap's footprint tracks the quarantine, not the heap's high-water
// mark. A chunk is 528 B, so a heap that paints a few objects (one
// connection's allocator, say) holds one small chunk rather than a bitmap
// sized for a large heap. VAOf exposes the virtual address of the bitmap
// word covering a heap address so callers can charge memory-system costs
// for paints and probes at the right locations.
package shadow

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/ca"
)

// chunkGranules is the number of granule bits per storage chunk; each chunk
// covers chunkGranules*16 bytes = 64 KiB of address space.
const chunkGranules = 4096
const chunkWords = chunkGranules / 64

// chunkSumWords is the size of a chunk's nonzero-word summary: one bit per
// 64-bit word of the chunk.
const chunkSumWords = chunkWords / 64

// Base is the virtual address at which the revocation bitmap is mapped in
// simulated processes. Only used for cost attribution.
const Base = 0x4000_0000_0000

// chunk is one 64 KiB span's worth of bitmap: 64 words, one summary word
// and a count, 528 B (Go's 576-byte size class). sum is the nonzero-word
// summary (bit w set iff words[w] != 0) and painted counts the chunk's set
// bits, so an emptied chunk is detected in O(1) and iteration descends
// only to nonzero words.
type chunk struct {
	words   [chunkWords]uint64
	sum     [chunkSumWords]uint64
	painted int
}

// group is one word of the chunk-group index with the chunks it marks:
// bit i of mask is set iff chunks[i], the chunk at index group*64+i, is
// present. Looking a chunk up is one map read for its group and an array
// index, and chunks of one group are found without another map read.
type group struct {
	mask   uint64
	chunks [64]*chunk
}

// Bitmap is a process's revocation bitmap.
//
// A single-entry chunk cache accelerates the sweep's probe sequence: a
// revocation sweep probes capability bases in allocation-address order, so
// consecutive probes overwhelmingly land in the same 64 KiB chunk and the
// chunk lookup amortizes away. The cache also remembers misses (a nil
// chunk), since huge unpainted spans are the common case. Every mutation
// path (set, and chunk freeing inside it) invalidates the cache — a freed
// chunk must never be readable through a stale positive entry. Reads
// populate the cache, so Bitmap methods — like the rest of the simulated
// machine — are not safe for concurrent host access; the engine's
// one-thread-at-a-time execution provides the exclusion.
type Bitmap struct {
	groups  map[uint64]*group // group index → its word and chunks
	nchunks int               // present chunks
	painted uint64            // currently-set bits

	// chunkFree and groupFree recycle freed chunks and groups. A chunk is
	// freed only when its last bit clears, and a group when its last chunk
	// is freed, so a recycled one is all-zero by construction and needs no
	// re-zeroing.
	chunkFree []*chunk
	groupFree []*group

	cacheKey   uint64
	cacheChunk *chunk // nil = chunk absent (negative entry)
	cacheOK    bool
}

// New creates an empty bitmap.
func New() *Bitmap {
	return &Bitmap{groups: make(map[uint64]*group)}
}

// chunk returns chunk ck, or nil if it is absent.
func (b *Bitmap) chunk(ck uint64) *chunk {
	if g := b.groups[ck>>6]; g != nil {
		return g.chunks[ck&63]
	}
	return nil
}

// coords converts a heap address to chunk/word/bit coordinates.
func coords(addr uint64) (ck uint64, word int, bit uint) {
	g := addr / ca.GranuleSize
	return g / chunkGranules, int(g%chunkGranules) / 64, uint(g % 64)
}

// VAOf returns the simulated virtual address of the bitmap byte holding
// addr's bit, for memory-cost attribution.
func VAOf(addr uint64) uint64 {
	return Base + addr/ca.GranuleSize/8
}

// checkAuth validates that auth may paint [addr, addr+length).
func checkAuth(auth ca.Capability, addr, length uint64) error {
	if !auth.Tag() {
		return ca.ErrTagCleared
	}
	if !auth.HasPerms(ca.PermPaint) {
		return fmt.Errorf("shadow: %w: need PermPaint", ca.ErrPermEscalation)
	}
	if addr < auth.Base() || addr+length > auth.Top() {
		return fmt.Errorf("shadow: paint [0x%x,+%d) outside authority [0x%x,0x%x)",
			addr, length, auth.Base(), auth.Top())
	}
	return nil
}

func checkAligned(addr, length uint64) error {
	if addr%ca.GranuleSize != 0 || length%ca.GranuleSize != 0 {
		return fmt.Errorf("shadow: range [0x%x,+%d) not granule-aligned", addr, length)
	}
	return nil
}

// Paint sets the bits for [addr, addr+length), authorized by auth. This is
// what an allocator does to place an allocation in quarantine.
func (b *Bitmap) Paint(auth ca.Capability, addr, length uint64) error {
	if err := checkAuth(auth, addr, length); err != nil {
		return err
	}
	if err := checkAligned(addr, length); err != nil {
		return err
	}
	b.set(addr, length, true)
	return nil
}

// Unpaint clears the bits for [addr, addr+length), done when quarantined
// address space is released for reuse after revocation.
func (b *Bitmap) Unpaint(auth ca.Capability, addr, length uint64) error {
	if err := checkAuth(auth, addr, length); err != nil {
		return err
	}
	if err := checkAligned(addr, length); err != nil {
		return err
	}
	b.set(addr, length, false)
	return nil
}

// addChunk materializes chunk ck in its group g, or in a new group if g
// is nil, registering it in the group index. It returns the group.
func (b *Bitmap) addChunk(g *group, ck uint64) (*group, *chunk) {
	if g == nil {
		if n := len(b.groupFree); n > 0 {
			g = b.groupFree[n-1]
			b.groupFree[n-1] = nil
			b.groupFree = b.groupFree[:n-1]
		} else {
			g = new(group)
		}
		b.groups[ck>>6] = g
	}
	var c *chunk
	if n := len(b.chunkFree); n > 0 {
		c = b.chunkFree[n-1]
		b.chunkFree[n-1] = nil
		b.chunkFree = b.chunkFree[:n-1]
	} else {
		c = new(chunk)
	}
	g.chunks[ck&63] = c
	g.mask |= 1 << (ck & 63)
	b.nchunks++
	return g, c
}

// freeChunk releases emptied chunk ck of group g: it leaves the group
// index and joins the recycle pool, and g, once it marks no chunk, leaves
// the map for its own pool. It returns g, or nil if g was freed. The
// single-entry cache may hold a positive entry for exactly this chunk, so
// it is dropped here — set already invalidates on entry, but freeing must
// be safe on its own.
func (b *Bitmap) freeChunk(g *group, ck uint64) *group {
	b.chunkFree = append(b.chunkFree, g.chunks[ck&63])
	g.chunks[ck&63] = nil
	g.mask &^= 1 << (ck & 63)
	b.nchunks--
	b.cacheOK = false
	if g.mask != 0 {
		return g
	}
	delete(b.groups, ck>>6)
	b.groupFree = append(b.groupFree, g)
	return nil
}

// set writes [addr, addr+length)'s bits. It applies whole word-masks — a
// 256-byte quarantine paint is one masked OR instead of 16 bit loops — and
// skips absent chunks in O(1) when clearing.
func (b *Bitmap) set(addr, length uint64, v bool) {
	// Mutations can materialize or free chunks, invalidating positive and
	// negative cache entries alike; drop the cache rather than track which
	// case applies.
	b.cacheOK = false
	g := addr / ca.GranuleSize
	end := (addr + length) / ca.GranuleSize
	var grp *group // group gk, read from the map once per group
	gk := ^uint64(0)
	for g < end {
		ck := g / chunkGranules
		if ck>>6 != gk {
			gk = ck >> 6
			grp = b.groups[gk]
		}
		var c *chunk
		if grp != nil {
			c = grp.chunks[ck&63]
		}
		if c == nil {
			if !v {
				g = (ck + 1) * chunkGranules // nothing to clear here
				continue
			}
			grp, c = b.addChunk(grp, ck)
		}
		stop := (ck + 1) * chunkGranules
		if stop > end {
			stop = end
		}
		for g < stop {
			word, bit := int(g%chunkGranules)/64, uint64(g%64)
			n := 64 - bit
			if g+n > stop {
				n = stop - g
			}
			mask := ^uint64(0)
			if n < 64 {
				mask = 1<<n - 1
			}
			mask <<= bit
			old := c.words[word]
			if v {
				if nw := old | mask; nw != old {
					delta := bits.OnesCount64(nw &^ old)
					b.painted += uint64(delta)
					c.painted += delta
					c.words[word] = nw
					if old == 0 {
						c.sum[word>>6] |= 1 << uint(word&63)
					}
				}
			} else {
				if nw := old &^ mask; nw != old {
					delta := bits.OnesCount64(old &^ nw)
					b.painted -= uint64(delta)
					c.painted -= delta
					c.words[word] = nw
					if nw == 0 {
						c.sum[word>>6] &^= 1 << uint(word&63)
					}
				}
			}
			g += n
		}
		if !v && c.painted == 0 {
			grp = b.freeChunk(grp, ck)
		}
	}
}

// Clone returns a deep copy of the bitmap (fork copies the revocation
// state along with the heap it describes).
func (b *Bitmap) Clone() *Bitmap {
	c := New()
	c.painted = b.painted
	c.nchunks = b.nchunks
	for k, g := range b.groups {
		ng := &group{mask: g.mask}
		for m := g.mask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			w := *g.chunks[i]
			ng.chunks[i] = &w
		}
		c.groups[k] = ng
	}
	return c
}

// Test reports whether addr's granule is painted. Revocation's per-granule
// sweep kernel probes this for the base of every capability it inspects;
// each call pays a group-map lookup, which is exactly the host cost
// PaintedWord amortizes for the word-wise kernel.
func (b *Bitmap) Test(addr uint64) bool {
	ck, word, bit := coords(addr)
	c := b.chunk(ck)
	return c != nil && c.words[word]&(1<<bit) != 0
}

// PaintedWord returns the 64-granule painted mask containing addr: bit i
// covers the granule at (addr &^ wordSpan-1) + i*GranuleSize, where
// wordSpan = 64*GranuleSize = 1 KiB. The alignment matches tmem's tag
// words — word w of a page's tag bitmap corresponds to PaintedWord of the
// page address + w KiB — so a word-wise sweep can intersect tag and shadow
// words directly. Lookups go through the single-entry chunk cache; a
// 64-granule word never spans chunks (chunkGranules is a multiple of 64).
func (b *Bitmap) PaintedWord(addr uint64) uint64 {
	g := addr / ca.GranuleSize
	if ck := g / chunkGranules; !b.cacheOK || b.cacheKey != ck {
		b.cacheKey, b.cacheChunk, b.cacheOK = ck, b.chunk(ck), true
	}
	if c := b.cacheChunk; c != nil {
		return c.words[g%chunkGranules/64]
	}
	return 0
}

// PaintedGranules returns the number of currently painted granules.
func (b *Bitmap) PaintedGranules() uint64 { return b.painted }

// PaintedBytes returns the quarantined address-space volume implied by the
// painted bits.
func (b *Bitmap) PaintedBytes() uint64 { return b.painted * ca.GranuleSize }

// ChunkCount returns the number of materialized chunks (the bitmap's
// sparse footprint, in chunks of 528 B that each cover 64 KiB of address
// space).
func (b *Bitmap) ChunkCount() int { return b.nchunks }

// AnyPaintedInRange reports whether any granule in [addr, addr+length) is
// painted; used by sweep heuristics and tests.
func (b *Bitmap) AnyPaintedInRange(addr, length uint64) bool {
	for g := addr / ca.GranuleSize; g < (addr+length+ca.GranuleSize-1)/ca.GranuleSize; g++ {
		ck, word, bit := g/chunkGranules, int(g%chunkGranules)/64, uint(g%64)
		if c := b.chunk(ck); c != nil && c.words[word]&(1<<bit) != 0 {
			return true
		}
	}
	return false
}

// ForEachPaintedWord visits every nonzero 64-granule word of the bitmap in
// ascending address order: base is the VA of the word's first granule and
// mask its painted bits, snapshotted at visit time. It descends the
// chunk-group → chunk → word-summary hierarchy, so the walk costs
// O(painted words) plus a sort of the (64× coarser than chunks) group
// index. Returns false if fn stopped the iteration early.
func (b *Bitmap) ForEachPaintedWord(fn func(base uint64, mask uint64) bool) bool {
	keys := make([]uint64, 0, len(b.groups))
	for k := range b.groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, gk := range keys {
		grp := b.groups[gk]
		for gw := grp.mask; gw != 0; gw &= gw - 1 {
			i := bits.TrailingZeros64(gw)
			ck, c := gk<<6+uint64(i), grp.chunks[i]
			for si := 0; si < chunkSumWords; si++ {
				sw := c.sum[si]
				for sw != 0 {
					w := si<<6 + bits.TrailingZeros64(sw)
					sw &= sw - 1
					base := (ck*chunkGranules + uint64(w)*64) * ca.GranuleSize
					if !fn(base, c.words[w]) {
						return false
					}
				}
			}
		}
	}
	return true
}

// ForEachPainted visits every painted granule's base address in ascending
// order, stopping early if fn returns false. Built on ForEachPaintedWord,
// so audits (internal/oracle) cost O(painted granules) rather than a scan
// and sort of every chunk.
func (b *Bitmap) ForEachPainted(fn func(addr uint64) bool) {
	b.ForEachPaintedWord(func(base uint64, mask uint64) bool {
		for m := mask; m != 0; m &= m - 1 {
			if !fn(base + uint64(bits.TrailingZeros64(m))*ca.GranuleSize) {
				return false
			}
		}
		return true
	})
}

// CountPaintedInRange returns the painted granule count within the range.
func (b *Bitmap) CountPaintedInRange(addr, length uint64) int {
	n := 0
	for g := addr / ca.GranuleSize; g < (addr+length)/ca.GranuleSize; {
		ck, word, bit := g/chunkGranules, int(g%chunkGranules)/64, uint(g%64)
		c := b.chunk(ck)
		if c == nil {
			// Skip to next chunk boundary.
			g = (g/chunkGranules + 1) * chunkGranules
			continue
		}
		if bit == 0 && g+64 <= (addr+length)/ca.GranuleSize {
			n += bits.OnesCount64(c.words[word])
			g += 64
			continue
		}
		if c.words[word]&(1<<bit) != 0 {
			n++
		}
		g++
	}
	return n
}
