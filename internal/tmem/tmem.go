// Package tmem models tagged physical memory.
//
// Memory is organized as 4 KiB frames. Each capability-sized (16 B) granule
// of a frame carries a tag bit distinguishing a valid capability from plain
// data, exactly as CHERI's tag controller does. The simulation stores only
// what revocation semantics depend on: the tag bitmap, the capability value
// held by each tagged granule, and (for the §7.3 memory-coloring
// composition) a per-granule version color. Plain data bytes are not
// stored; data accesses are accounted for by the cost model, and their
// values never influence revocation.
package tmem

import (
	"fmt"
	"math/bits"

	"repro/internal/ca"
)

const (
	// PageSize is the frame and virtual page size in bytes.
	PageSize = 4096
	// GranulesPerPage is the number of capability granules per frame.
	GranulesPerPage = PageSize / ca.GranuleSize
	// tagWords is the number of 64-bit words in a frame's tag bitmap.
	tagWords = GranulesPerPage / 64
	// frameChunk is the number of frames in one chunk of the frame table.
	frameChunk = 1024
)

// FrameID names a physical frame.
type FrameID uint32

// NoFrame is the sentinel for "no frame".
const NoFrame FrameID = ^FrameID(0)

// frame is the per-frame storage, 64 bytes: one host cache line, since a
// chunk of the frame table is page-aligned. Capability values sit behind
// one directory pointer, allocated on the frame's first tag and recycled
// with the frame, so a frame that never holds a capability costs nothing
// beyond its 64 bytes. Each tag word's values are packed into one block
// sized by the granules the word has tagged (see capWord). A set bit in
// tags[w] implies caps[w] holds a slot for it. The color array is
// allocated lazily too.
//
// summary is a one-bit-per-tag-word digest of tags: bit w is set iff
// tags[w] != 0. Every tag mutation maintains it (via setTag and clearTag),
// so HasTags and sweep scans skip empty words and empty frames in O(1).
type frame struct {
	tags    [tagWords]uint64
	caps    *capDir
	colors  *[GranulesPerPage]uint8
	summary uint8
	inUse   bool
	_       [14]byte // pads the frame to its cache line
}

// capDir is a frame's capability directory: one entry per tag word.
type capDir [tagWords]capWord

// capWord holds the capability values of one tag word, packed. slots has a
// bit for every granule of the word that has held a tag since the frame was
// allocated, and vals holds those granules' values in ascending granule
// order, so granule b's value is vals[popcount(slots & (1<<b - 1))]. A tag
// clear leaves the granule's slot and value in place; slots are dropped
// only when the frame is freed. len(vals) is the block's capacity: the
// least power of two, from 1 to 64, that holds every slot (nil with no
// slots). The values past the last slot are stale.
type capWord struct {
	slots uint64
	vals  []ca.Capability
}

// get returns the value of granule w*64+b of the word's frame. b must
// have a slot; every bit of a mask read from the word's tags does, also
// after that bit's tag is cleared.
func (cw *capWord) get(b int) ca.Capability {
	return cw.vals[bits.OnesCount64(cw.slots&(1<<(uint(b)&63)-1))]
}

// WordCaps reads one tag word's capability values for a SweepTagsWords
// callback. It holds the word's directory entry, not its block, and ranks
// each read against the word's current slots, so a slot that a store
// inserts below the next granule while the callback yields, moving the
// values above it or the whole block, is seen.
type WordCaps struct{ word *capWord }

// Get returns the current value of bit b of the callback's mask.
func (wc WordCaps) Get(b int) ca.Capability { return wc.word.get(b) }

// setTag and clearTag are the only writers of the tag bitmap: they keep the
// nonzero-word summary in lockstep with tags, which every fast path
// (HasTags, TagCount, the word-wise sweep kernel) relies on.
func (f *frame) setTag(w int, m uint64) {
	f.tags[w] |= m
	f.summary |= 1 << uint(w)
}

func (f *frame) clearTag(w int, m uint64) {
	f.tags[w] &^= m
	if f.tags[w] == 0 {
		f.summary &^= 1 << uint(w)
	}
}

// Phys is a bank of tagged physical memory frames. The frame table is a
// list of fixed chunks of frameChunk frames, allocated as the table grows,
// so frames sit side by side and their storage never moves: a sweeper
// holds a *frame across virtual-time yields, and growing the frame table
// under it (an app-thread demand map mid-sweep) must not orphan the
// sweeper's view — a relocated backing array would silently discard its
// tag clears.
type Phys struct {
	chunks    []*[frameChunk]frame // frame id is chunks[id/frameChunk][id%frameChunk]
	nframes   int                  // frames ever materialized
	free      []FrameID
	maxFrames int
	allocated int
	peakAlloc int

	// capsFree recycles capability storage: the directories and blocks of
	// freed frames, the blocks that inserts outgrow and the blocks of copy
	// destinations whose source word needs another capacity. blocks[k]
	// holds blocks of 1<<k slots. A recycled directory is empty; a
	// recycled block is handed out without zeroing: a block is read only
	// at the ranks of its word's slots, each of which is written when the
	// slot is inserted or the block is filled, so stale values are
	// unobservable.
	capsFree struct {
		dirs   []*capDir
		blocks [7][][]ca.Capability
	}

	// cursors recycles SweepTagsWords cursors. Sweeps of different frames
	// interleave at virtual-time yields, so each call takes its own.
	cursors []*SweepCursor

	// SweepFilter, when non-nil, is consulted for every tagged granule a
	// SweepTags scan visits; returning true hides the granule from that
	// scan entirely (not visited, never revoked) — a stale tag-controller
	// read, injected by internal/fault. ForEachTag ignores the filter, so
	// audits always see ground truth.
	SweepFilter func(id FrameID, g int, c ca.Capability) bool
}

// NewPhys creates a memory bank capable of holding up to maxFrames frames.
// Frames are materialized lazily.
func NewPhys(maxFrames int) *Phys {
	return &Phys{maxFrames: maxFrames}
}

// recycled pops an object from a free list, or allocates one.
func recycled[T any](free *[]*T) *T {
	if n := len(*free); n > 0 {
		x := (*free)[n-1]
		(*free)[n-1] = nil
		*free = (*free)[:n-1]
		return x
	}
	return new(T)
}

// block returns a block of n slots, n a power of two up to 64, or nil for
// n == 0.
func (p *Phys) block(n int) []ca.Capability {
	if n == 0 {
		return nil
	}
	free := &p.capsFree.blocks[bits.TrailingZeros(uint(n))]
	if k := len(*free); k > 0 {
		b := (*free)[k-1]
		(*free)[k-1] = nil
		*free = (*free)[:k-1]
		return b
	}
	return make([]ca.Capability, n)
}

// recycleBlock returns a block, if any, to capsFree.
func (p *Phys) recycleBlock(b []ca.Capability) {
	if b != nil {
		k := bits.TrailingZeros(uint(len(b)))
		p.capsFree.blocks[k] = append(p.capsFree.blocks[k], b)
	}
}

// putCap writes c into the slot of granule bit m of frame f's tag word w.
// A granule without a slot gets one: the values above it shift up one
// place, after a full block has moved into one of twice its capacity.
func (p *Phys) putCap(f *frame, w int, m uint64, c ca.Capability) {
	if f.caps == nil {
		f.caps = recycled(&p.capsFree.dirs)
	}
	cw := &f.caps[w]
	i := bits.OnesCount64(cw.slots & (m - 1))
	if cw.slots&m == 0 {
		n := bits.OnesCount64(cw.slots)
		if n == len(cw.vals) {
			vals := p.block(1 << bits.Len(uint(n)))
			copy(vals, cw.vals)
			p.recycleBlock(cw.vals)
			cw.vals = vals
		}
		copy(cw.vals[i+1:n+1], cw.vals[i:n])
		cw.slots |= m
	}
	cw.vals[i] = c
}

// recycleCaps returns frame f's directory and blocks to capsFree.
func (p *Phys) recycleCaps(f *frame) {
	if f.caps == nil {
		return
	}
	for w := range f.caps {
		p.recycleBlock(f.caps[w].vals)
		f.caps[w] = capWord{}
	}
	p.capsFree.dirs = append(p.capsFree.dirs, f.caps)
	f.caps = nil
}

// AllocFrame allocates a zeroed (all tags clear) frame.
func (p *Phys) AllocFrame() (FrameID, error) {
	var id FrameID
	if n := len(p.free); n > 0 {
		id = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		if p.nframes >= p.maxFrames {
			return NoFrame, fmt.Errorf("tmem: out of physical memory (%d frames)", p.maxFrames)
		}
		id = FrameID(p.nframes)
		if p.nframes%frameChunk == 0 {
			p.chunks = append(p.chunks, new([frameChunk]frame))
		}
		p.nframes++
	}
	// A freed frame has already returned its capability storage.
	*p.slot(id) = frame{inUse: true}
	p.allocated++
	if p.allocated > p.peakAlloc {
		p.peakAlloc = p.allocated
	}
	return id, nil
}

// FreeFrame returns the frame to the free pool. Tags are cleared so a
// later reuse cannot leak capabilities between owners.
func (p *Phys) FreeFrame(id FrameID) {
	if int(id) >= p.nframes {
		panic(fmt.Sprintf("tmem: frame %d out of range", id))
	}
	f := p.slot(id)
	if !f.inUse {
		panic(fmt.Sprintf("tmem: double free of frame %d", id))
	}
	f.inUse = false
	f.tags = [tagWords]uint64{}
	f.summary = 0
	p.recycleCaps(f)
	f.colors = nil
	p.allocated--
	p.free = append(p.free, id)
}

// Allocated returns the number of frames currently in use.
func (p *Phys) Allocated() int { return p.allocated }

// PeakAllocated returns the high-water mark of in-use frames.
func (p *Phys) PeakAllocated() int { return p.peakAlloc }

// slot returns frame id's storage, in use or not; id must be below
// nframes.
func (p *Phys) slot(id FrameID) *frame {
	return &p.chunks[id/frameChunk][id%frameChunk]
}

func (p *Phys) frame(id FrameID) *frame {
	if int(id) >= p.nframes {
		panic(fmt.Sprintf("tmem: frame %d out of range", id))
	}
	f := p.slot(id)
	if !f.inUse {
		panic(fmt.Sprintf("tmem: access to free frame %d", id))
	}
	return f
}

// checkGranule panics on an out-of-range granule index; callers translate
// virtual offsets before reaching physical memory, so this is an internal
// invariant, not a user-facing fault.
func checkGranule(g int) {
	if g < 0 || g >= GranulesPerPage {
		panic(fmt.Sprintf("tmem: granule %d out of range", g))
	}
}

// loc is the shared coordinate computation of every per-granule tag
// accessor: bounds check, frame lookup, and the granule's tag-word index
// and bit mask. Kept small so it inlines into LoadCap/StoreCap/TagSet/
// ClearTag and costs no more than the computation it replaced.
func (p *Phys) loc(id FrameID, g int) (f *frame, w int, m uint64) {
	checkGranule(g)
	return p.frame(id), g >> 6, 1 << (uint(g) & 63)
}

// StoreCap stores a capability-width value to granule g of frame id. If c
// is tagged the granule's tag is set; storing untagged data clears it, as
// any overwrite does in hardware.
func (p *Phys) StoreCap(id FrameID, g int, c ca.Capability) {
	f, w, m := p.loc(id, g)
	if c.Tag() {
		p.putCap(f, w, m, c)
		f.setTag(w, m)
	} else {
		f.clearTag(w, m)
	}
}

// StoreData records a plain-data store covering granules [g, g+n): their
// tags are cleared. The data value itself is not retained. Whole
// word-masked spans are cleared at once, and frames with no tags at all
// cost O(1).
func (p *Phys) StoreData(id FrameID, g, n int) {
	checkGranule(g)
	if n <= 0 {
		return
	}
	checkGranule(g + n - 1)
	f := p.frame(id)
	if f.summary == 0 {
		return
	}
	last := g + n - 1
	for w := g >> 6; w <= last>>6; w++ {
		lo := w << 6
		start, end := uint(0), uint(63)
		if g > lo {
			start = uint(g - lo)
		}
		if last < lo+63 {
			end = uint(last - lo)
		}
		f.clearTag(w, ^uint64(0)>>(63-end)&(^uint64(0)<<start))
	}
}

// LoadCap loads a capability-width value from granule g. Untagged granules
// read as untagged (null-derived) data.
func (p *Phys) LoadCap(id FrameID, g int) ca.Capability {
	f, w, m := p.loc(id, g)
	if f.tags[w]&m == 0 {
		return ca.Null(0)
	}
	return f.caps[w].get(g & 63)
}

// TagSet reports whether granule g holds a valid capability.
func (p *Phys) TagSet(id FrameID, g int) bool {
	f, w, m := p.loc(id, g)
	return f.tags[w]&m != 0
}

// ClearTag invalidates the capability at granule g, leaving its bits as
// untagged data. This is revocation's fundamental write.
func (p *Phys) ClearTag(id FrameID, g int) {
	f, w, m := p.loc(id, g)
	f.clearTag(w, m)
}

// HasTags reports whether any granule of the frame holds a capability.
// O(1): it reads the frame's nonzero-word summary.
func (p *Phys) HasTags(id FrameID) bool {
	return p.frame(id).summary != 0
}

// TagCount returns the number of tagged granules in the frame, popcounting
// only the words the summary marks nonzero.
func (p *Phys) TagCount(id FrameID) int {
	f := p.frame(id)
	n := 0
	for s := f.summary; s != 0; {
		w := bits.TrailingZeros8(s)
		s &^= 1 << uint(w)
		n += bits.OnesCount64(f.tags[w])
	}
	return n
}

// SweepTags visits every tagged granule of the frame in ascending order and
// invokes fn with its index and capability. If fn returns true the tag is
// cleared (the capability is revoked). It returns the number of granules
// visited and the number revoked. This is the inner loop of every
// revocation sweep.
func (p *Phys) SweepTags(id FrameID, fn func(g int, c ca.Capability) bool) (visited, revoked int) {
	f := p.frame(id)
	if f.summary == 0 {
		return 0, 0
	}
	for w := 0; w < tagWords; w++ {
		if f.summary&(1<<uint(w)) == 0 {
			continue
		}
		word := f.tags[w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			g := w*64 + b
			if p.SweepFilter != nil && p.SweepFilter(id, g, f.caps[w].get(b)) {
				continue
			}
			visited++
			if fn(g, f.caps[w].get(b)) {
				f.clearTag(w, 1<<uint(b))
				revoked++
			}
		}
	}
	return visited, revoked
}

// SweepCursor is the revocation handle passed to a SweepTagsWords callback,
// valid until the callback returns. Revoke applies a tag clear
// immediately, granule by granule: mid-word virtual-time yields let
// application threads observe tag state, so clears deferred to the end of
// a word would open a divergence window against a per-granule sweep.
type SweepCursor struct {
	f       *frame
	revoked int
}

// Revoke clears granule g's tag — revocation's fundamental write — and
// counts it against the sweep's revoked total.
func (cur *SweepCursor) Revoke(g int) {
	cur.f.clearTag(g>>6, 1<<(uint(g)&63))
	cur.revoked++
}

// SweepWordFn processes one nonzero tag word of a word-wise sweep: w is
// the word index within the frame, mask the tag bits snapshotted when the
// word was reached, and caps the word's values: bit b of mask is granule
// w*64+b, whose value is caps.Get(b). Read each value through caps when it
// is needed, never through a block or rank taken from it earlier: a
// capability that an application thread stores into a granule of the word
// without a slot while the callback yields shifts the values above it,
// and moves the word into a bigger block when its block is full. A read
// sees the slot's current value, which a tag clear leaves in place. The
// callback must handle every set bit of mask, in ascending bit order,
// revoking through cur.
type SweepWordFn func(cur *SweepCursor, w int, mask uint64, caps WordCaps)

// SweepTagsWords is the batch sweep kernel: instead of one callback per
// tagged granule it hands fn whole nonzero tag words (guided by the frame
// summary, so empty words and empty frames cost O(1)), letting the caller
// intersect each word against the revocation bitmap's matching word
// (shadow.PaintedWord) and descend only to set bits. Semantics are
// identical to SweepTags — same ascending visit order, same
// snapshot-at-word-arrival view, same immediate tag clears — only the
// callback granularity differs. A call allocates nothing: its cursor is
// recycled.
//
// When a SweepFilter is armed the sweep falls back to the per-granule path
// and invokes fn with single-bit masks: filter decisions may depend on the
// simulated cycle at which each granule is reached, so pre-masking a whole
// word would change what the filter observes.
func (p *Phys) SweepTagsWords(id FrameID, fn SweepWordFn) (visited, revoked int) {
	f := p.frame(id)
	if f.summary == 0 {
		return 0, 0
	}
	cur := recycled(&p.cursors)
	*cur = SweepCursor{f: f}
	if p.SweepFilter != nil {
		visited, _ = p.SweepTags(id, func(g int, _ ca.Capability) bool {
			fn(cur, g>>6, 1<<(uint(g)&63), WordCaps{&f.caps[g>>6]})
			return false // revocations land through cur.Revoke
		})
	} else {
		for w := 0; w < tagWords; w++ {
			if f.summary&(1<<uint(w)) == 0 {
				continue
			}
			mask := f.tags[w]
			visited += bits.OnesCount64(mask)
			fn(cur, w, mask, WordCaps{&f.caps[w]})
		}
	}
	revoked = cur.revoked
	p.cursors = append(p.cursors, cur)
	return visited, revoked
}

// ForEachTag visits every tagged granule of the frame in ascending order,
// read-only: tags are never cleared and SweepFilter does not apply. This
// is the audit view (internal/oracle) of the tag controller's ground
// truth.
func (p *Phys) ForEachTag(id FrameID, fn func(g int, c ca.Capability)) {
	f := p.frame(id)
	if f.summary == 0 {
		return
	}
	for w := 0; w < tagWords; w++ {
		if f.summary&(1<<uint(w)) == 0 {
			continue
		}
		word := f.tags[w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			fn(w*64+b, f.caps[w].get(b))
		}
	}
}

// CopyFrame copies src's tags, capabilities and colors into dst, as a
// fork-style address-space clone does: each dst word gets a copy of its
// src word's slots and values, in a block of the same capacity. Copying a
// frame onto itself changes nothing.
func (p *Phys) CopyFrame(dst, src FrameID) {
	d, sf := p.frame(dst), p.frame(src)
	if d == sf {
		return
	}
	d.tags = sf.tags
	d.summary = sf.summary
	if sf.caps == nil {
		p.recycleCaps(d)
	} else {
		if d.caps == nil {
			d.caps = recycled(&p.capsFree.dirs)
		}
		for w := range sf.caps {
			sc, dc := &sf.caps[w], &d.caps[w]
			if len(dc.vals) != len(sc.vals) {
				p.recycleBlock(dc.vals)
				dc.vals = p.block(len(sc.vals))
			}
			dc.slots = sc.slots
			copy(dc.vals, sc.vals[:bits.OnesCount64(sc.slots)])
		}
	}
	if sf.colors != nil {
		colors := *sf.colors
		d.colors = &colors
	} else {
		d.colors = nil
	}
}

// FrameCount returns the number of frames ever materialized (the frame
// table's length, including freed frames awaiting reuse).
func (p *Phys) FrameCount() int { return p.nframes }

// SetColor paints the version color of granules [g, g+n) (§7.3). Colors
// survive data stores: they are a property of the memory, not the value.
func (p *Phys) SetColor(id FrameID, g, n int, color uint8) {
	checkGranule(g)
	if n <= 0 {
		return
	}
	checkGranule(g + n - 1)
	f := p.frame(id)
	if f.colors == nil {
		if color == 0 {
			return
		}
		f.colors = new([GranulesPerPage]uint8)
	}
	for i := g; i < g+n; i++ {
		f.colors[i] = color
	}
}

// ColorOf returns the version color of granule g.
func (p *Phys) ColorOf(id FrameID, g int) uint8 {
	checkGranule(g)
	f := p.frame(id)
	if f.colors == nil {
		return 0
	}
	return f.colors[g]
}
