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

// frame is the per-frame storage. Capability values live in one 64-slot
// block per tag word, allocated when the word's first tag is stored, so a
// frame holding a single capability costs one block rather than a whole
// page of values; most frames never hold a capability and cost none. A set
// bit in tags[w] implies caps[w] != nil. The color array is allocated
// lazily too. refs counts the address spaces sharing the frame
// (copy-on-write fork); it is 1 for private frames.
//
// summary is a one-bit-per-tag-word digest of tags: bit w is set iff
// tags[w] != 0. Every tag mutation maintains it (via setTag/clearTag), so
// HasTags and sweep scans skip empty words and empty frames in O(1). The
// bank back-pointer lets those same mutators maintain the bank-level
// frame-group and region summaries (see Phys) on the frame's 0↔nonzero
// transitions.
type frame struct {
	tags    [tagWords]uint64
	caps    [tagWords]*[64]ca.Capability
	colors  *[GranulesPerPage]uint8
	bank    *Phys
	refs    int32
	id      FrameID
	summary uint8
	inUse   bool
}

// setTag and clearTag are the only writers of the tag bitmap: they keep the
// nonzero-word summary in lockstep with tags, which every fast path
// (HasTags, TagCount, the word-wise sweep kernel) relies on, and propagate
// the frame's empty↔tagged transitions up the bank hierarchy.
func (f *frame) setTag(w int, m uint64) {
	if f.summary == 0 {
		f.bank.markTagged(f.id)
	}
	f.tags[w] |= m
	f.summary |= 1 << uint(w)
}

func (f *frame) clearTag(w int, m uint64) {
	old := f.tags[w]
	f.tags[w] = old &^ m
	if f.tags[w] == 0 && old != 0 {
		f.summary &^= 1 << uint(w)
		if f.summary == 0 {
			f.bank.unmarkTagged(f.id)
		}
	}
}

// Phys is a bank of tagged physical memory frames. The frame table is a
// list of fixed chunks of frameChunk frames, allocated as the table grows,
// so frames sit side by side and their storage never moves: a sweeper
// holds a *frame across virtual-time yields, and growing the frame table
// under it (an app-thread demand map mid-sweep) must not orphan the
// sweeper's view — a relocated backing array would silently discard its
// tag clears.
//
// Above each frame's nonzero-word summary sits a two-level bank summary:
// bit f%64 of groupSum[f/64] is set iff frame f holds at least one tag, and
// bit g%64 of regionSum[g/64] is set iff frame-group g is nonzero. One
// region word therefore digests 4096 frames (16 MiB), so bank-wide
// iteration (ForEachTaggedFrame, ForEachTagAll) skips empty regions in
// O(1) and costs O(live-tagged frames), not O(bank size) — the property
// that keeps million-allocation heaps sweepable.
type Phys struct {
	chunks    []*[frameChunk]frame // frame id is chunks[id/frameChunk][id%frameChunk]
	nframes   int                  // frames ever materialized
	free      []FrameID
	maxFrames int
	allocated int
	peakAlloc int

	groupSum     []uint64 // bit f%64 set iff frames[f] has tags
	regionSum    []uint64 // bit g%64 set iff groupSum[g] != 0
	taggedFrames int

	// capsFree recycles the capability blocks of freed frames and of
	// copy destinations. A recycled block is handed out without zeroing:
	// every read of a block is guarded by the granule's tag bit (LoadCap,
	// SweepTags, ForEachTag, the SweepTagsWords mask), and a block joins a
	// word whose tags are all clear, so stale values are unobservable.
	capsFree []*[64]ca.Capability

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

// markTagged records frame id's empty→tagged transition in the bank
// summaries.
func (p *Phys) markTagged(id FrameID) {
	g := int(id) >> 6
	if p.groupSum[g] == 0 {
		p.regionSum[g>>6] |= 1 << (uint(g) & 63)
	}
	p.groupSum[g] |= 1 << (uint(id) & 63)
	p.taggedFrames++
}

// unmarkTagged records frame id's tagged→empty transition.
func (p *Phys) unmarkTagged(id FrameID) {
	g := int(id) >> 6
	p.groupSum[g] &^= 1 << (uint(id) & 63)
	if p.groupSum[g] == 0 {
		p.regionSum[g>>6] &^= 1 << (uint(g) & 63)
	}
	p.taggedFrames--
}

// newCaps returns a capability block for one tag word, recycling a freed
// block when one is available (see capsFree).
func (p *Phys) newCaps() *[64]ca.Capability {
	if n := len(p.capsFree); n > 0 {
		c := p.capsFree[n-1]
		p.capsFree[n-1] = nil
		p.capsFree = p.capsFree[:n-1]
		return c
	}
	return new([64]ca.Capability)
}

// recycleCaps returns a no-longer-referenced capability block to the pool.
func (p *Phys) recycleCaps(c *[64]ca.Capability) {
	if c != nil {
		p.capsFree = append(p.capsFree, c)
	}
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
		*p.slot(id) = frame{bank: p, id: id}
		// Grow the bank summaries alongside the frame table. A fresh frame
		// has no tags, so only capacity changes — never summary bits.
		if int(id)>>6 >= len(p.groupSum) {
			p.groupSum = append(p.groupSum, 0)
			if (len(p.groupSum)-1)>>6 >= len(p.regionSum) {
				p.regionSum = append(p.regionSum, 0)
			}
		}
	}
	f := p.slot(id)
	f.tags = [tagWords]uint64{}
	f.summary = 0
	f.caps = [tagWords]*[64]ca.Capability{}
	f.colors = nil
	f.refs = 1
	f.inUse = true
	p.allocated++
	if p.allocated > p.peakAlloc {
		p.peakAlloc = p.allocated
	}
	return id, nil
}

// FreeFrame drops one reference to the frame, returning it to the free
// pool when the last sharer releases it. Tags are cleared so a later reuse
// cannot leak capabilities between owners.
func (p *Phys) FreeFrame(id FrameID) {
	f := p.frame(id)
	if !f.inUse {
		panic(fmt.Sprintf("tmem: double free of frame %d", id))
	}
	if f.refs > 1 {
		f.refs--
		return
	}
	if f.summary != 0 {
		p.unmarkTagged(id)
	}
	f.inUse = false
	f.tags = [tagWords]uint64{}
	f.summary = 0
	for w, c := range f.caps {
		p.recycleCaps(c)
		f.caps[w] = nil
	}
	f.colors = nil
	f.refs = 0
	p.allocated--
	p.free = append(p.free, id)
}

// Ref adds a sharer to the frame (copy-on-write fork).
func (p *Phys) Ref(id FrameID) {
	p.frame(id).refs++
}

// Refs returns the frame's sharer count.
func (p *Phys) Refs(id FrameID) int { return int(p.frame(id).refs) }

// Shared reports whether more than one address space references the frame.
func (p *Phys) Shared(id FrameID) bool { return p.frame(id).refs > 1 }

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
		if f.caps[w] == nil {
			f.caps[w] = p.newCaps()
		}
		f.caps[w][g&63] = c
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
	return f.caps[w][g&63]
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
			if p.SweepFilter != nil && p.SweepFilter(id, g, f.caps[w][b]) {
				continue
			}
			visited++
			if fn(g, f.caps[w][b]) {
				f.clearTag(w, 1<<uint(b))
				revoked++
			}
		}
	}
	return visited, revoked
}

// SweepCursor is the revocation handle passed to a SweepTagsWords callback.
// Revoke applies a tag clear immediately, granule by granule: mid-word
// virtual-time yields let application threads observe tag state, so clears
// deferred to the end of a word would open a divergence window against a
// per-granule sweep.
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
// word was reached, and caps that word's capability block, read at the
// same moment (bit b of mask is granule w*64+b, whose value is caps[b]).
// The callback must handle every set bit of mask, in ascending bit order,
// revoking through cur.
type SweepWordFn func(cur *SweepCursor, w int, mask uint64, caps *[64]ca.Capability)

// SweepTagsWords is the batch sweep kernel: instead of one callback per
// tagged granule it hands fn whole nonzero tag words (guided by the frame
// summary, so empty words and empty frames cost O(1)), letting the caller
// intersect each word against the revocation bitmap's matching word
// (shadow.PaintedWord) and descend only to set bits. Semantics are
// identical to SweepTags — same ascending visit order, same
// snapshot-at-word-arrival view, same immediate tag clears — only the
// callback granularity differs.
//
// When a SweepFilter is armed the sweep falls back to the per-granule path
// and invokes fn with single-bit masks: filter decisions may depend on the
// simulated cycle at which each granule is reached, so pre-masking a whole
// word would change what the filter observes.
//
// Each word's block is read together with its mask, never captured when
// the frame's sweep starts: fn may yield virtual time, and an application
// thread storing the first capability of a later word meanwhile creates
// that word's block.
func (p *Phys) SweepTagsWords(id FrameID, fn SweepWordFn) (visited, revoked int) {
	f := p.frame(id)
	if f.summary == 0 {
		return 0, 0
	}
	cur := SweepCursor{f: f}
	if p.SweepFilter != nil {
		v, _ := p.SweepTags(id, func(g int, _ ca.Capability) bool {
			fn(&cur, g>>6, 1<<(uint(g)&63), f.caps[g>>6])
			return false // revocations land through cur.Revoke
		})
		return v, cur.revoked
	}
	for w := 0; w < tagWords; w++ {
		if f.summary&(1<<uint(w)) == 0 {
			continue
		}
		mask := f.tags[w]
		visited += bits.OnesCount64(mask)
		fn(&cur, w, mask, f.caps[w])
	}
	return visited, cur.revoked
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
			fn(w*64+b, f.caps[w][b])
		}
	}
}

// CopyFrame copies src's tags, capabilities and colors into dst, as a
// fork-style address-space clone does. dst ends up with a block exactly
// where src has one; a dst block whose src word has none is recycled.
func (p *Phys) CopyFrame(dst, src FrameID) {
	d, sf := p.frame(dst), p.frame(src)
	had := d.summary != 0
	d.tags = sf.tags
	d.summary = sf.summary
	if has := d.summary != 0; has != had {
		if has {
			p.markTagged(dst)
		} else {
			p.unmarkTagged(dst)
		}
	}
	for w, sc := range sf.caps {
		if sc == nil {
			p.recycleCaps(d.caps[w])
			d.caps[w] = nil
			continue
		}
		if d.caps[w] == nil {
			d.caps[w] = p.newCaps()
		}
		*d.caps[w] = *sc
	}
	if sf.colors != nil {
		colors := *sf.colors
		d.colors = &colors
	} else {
		d.colors = nil
	}
}

// TaggedFrames returns the number of frames currently holding at least one
// tagged granule. O(1): maintained by the bank summaries.
func (p *Phys) TaggedFrames() int { return p.taggedFrames }

// FrameCount returns the number of frames ever materialized (the frame
// table's length, including freed frames awaiting reuse).
func (p *Phys) FrameCount() int { return p.nframes }

// ForEachTaggedFrame visits, in ascending frame order, every frame holding
// at least one tagged granule, descending the region → frame-group summary
// tree so empty spans of the bank cost O(1). It returns false if fn
// stopped the iteration early.
//
// The iteration is weakly consistent: each region and group word is
// snapshotted when the walk reaches it, so frames tagged for the whole
// iteration are visited exactly once in ascending order, while frames
// whose first tag arrives or last tag is cleared concurrently (by fn) may
// or may not be visited. Growing the frame table from fn is safe: the
// summary slices are indexed positionally, so a reallocation never
// invalidates the walk (the same guarantee the chunked frame table gives
// SweepTags).
func (p *Phys) ForEachTaggedFrame(fn func(id FrameID) bool) bool {
	for r := 0; r < len(p.regionSum); r++ {
		rw := p.regionSum[r]
		for rw != 0 {
			g := r<<6 + bits.TrailingZeros64(rw)
			rw &= rw - 1
			gw := p.groupSum[g]
			for gw != 0 {
				id := FrameID(g<<6 + bits.TrailingZeros64(gw))
				gw &= gw - 1
				if !fn(id) {
					return false
				}
			}
		}
	}
	return true
}

// ForEachTagAll visits every tagged granule of the whole bank in ascending
// (frame, granule) order — the bank-wide audit sweep. O(live tags): empty
// regions, groups, frames and words are all skipped via their summaries.
func (p *Phys) ForEachTagAll(fn func(id FrameID, g int, c ca.Capability)) {
	p.ForEachTaggedFrame(func(id FrameID) bool {
		p.ForEachTag(id, func(g int, c ca.Capability) { fn(id, g, c) })
		return true
	})
}

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
