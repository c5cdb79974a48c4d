package tmem

import (
	"math/bits"
	"runtime"
	"testing"

	"repro/internal/ca"
)

// flatFrame is the reference model of one frame's capability storage: the
// tag bitmap and a capability slot for every granule of the page.
type flatFrame struct {
	tags [tagWords]uint64
	caps [GranulesPerPage]ca.Capability
}

func (m *flatFrame) tagged(g int) bool { return m.tags[g>>6]&(1<<(uint(g)&63)) != 0 }

func (m *flatFrame) load(g int) ca.Capability {
	if !m.tagged(g) {
		return ca.Null(0)
	}
	return m.caps[g]
}

// capBank drives a Phys bank and its flat model through the same
// operations and reports the first disagreement.
type capBank struct {
	t      *testing.T
	p      *Phys
	ids    []FrameID
	model  []flatFrame
	stores uint64 // distinct value counter: store k holds base k*GranuleSize
}

func newCapBank(t *testing.T, frames int) *capBank {
	b := &capBank{t: t, p: NewPhys(frames), model: make([]flatFrame, frames)}
	for i := 0; i < frames; i++ {
		b.ids = append(b.ids, mustAlloc(t, b.p))
	}
	return b
}

// value returns the capability of store k; its base encodes k, so any bit
// of k can serve as a revocation or filter predicate.
func value(k uint64) ca.Capability {
	return ca.NewRoot(k*ca.GranuleSize, ca.GranuleSize, ca.PermsData)
}

func valueBit(c ca.Capability, bit uint) bool {
	return (c.Base()/ca.GranuleSize)>>bit&1 != 0
}

func (b *capBank) storeCap(i, g int, tagged bool) {
	b.stores++
	c := value(b.stores)
	if !tagged {
		c = c.ClearTag()
	}
	b.p.StoreCap(b.ids[i], g, c)
	m := &b.model[i]
	if tagged {
		m.tags[g>>6] |= 1 << (uint(g) & 63)
		m.caps[g] = c
	} else {
		m.tags[g>>6] &^= 1 << (uint(g) & 63)
	}
}

func (b *capBank) storeData(i, g, n int) {
	b.p.StoreData(b.ids[i], g, n)
	for j := g; j < g+n; j++ {
		b.model[i].tags[j>>6] &^= 1 << (uint(j) & 63)
	}
}

func (b *capBank) clearTag(i, g int) {
	b.p.ClearTag(b.ids[i], g)
	b.model[i].tags[g>>6] &^= 1 << (uint(g) & 63)
}

func (b *capBank) copyFrame(dst, src int) {
	b.p.CopyFrame(b.ids[dst], b.ids[src])
	b.model[dst] = b.model[src]
}

func (b *capBank) reuseFrame(i int) {
	b.p.FreeFrame(b.ids[i])
	b.ids[i] = mustAlloc(b.t, b.p)
	b.model[i] = flatFrame{}
}

// sweep runs one SweepTagsWords pass over frame i that revokes every
// capability whose value has bit rev set. With hide >= 0 a SweepFilter
// hides the capabilities whose value has bit hide set, which sends the
// sweep down its per-granule fallback. The granules the callback saw must
// be the model's tagged granules, ascending, minus the hidden ones, and
// each value it read must be the model's value of that granule's slot at
// the moment of the read. With disturb non-nil, the callback calls it
// after handling each granule, with the granule, its word and the mask
// bits still to come; disturb may change the word being swept, whose mask
// is already fixed, but no other word.
func (b *capBank) sweep(i int, rev uint, hide int, disturb func(g, w int, rest uint64)) {
	m := &b.model[i]
	var want []int
	for g := 0; g < GranulesPerPage; g++ {
		if m.tagged(g) && (hide < 0 || !valueBit(m.caps[g], uint(hide))) {
			want = append(want, g)
		}
	}
	if hide >= 0 {
		b.p.SweepFilter = func(_ FrameID, _ int, c ca.Capability) bool { return valueBit(c, uint(hide)) }
		defer func() { b.p.SweepFilter = nil }()
	}
	var got []int
	wantRevoked := 0
	visited, revoked := b.p.SweepTagsWords(b.ids[i], func(cur *SweepCursor, w int, mask uint64, caps WordCaps) {
		for mk := mask; mk != 0; mk &= mk - 1 {
			bit := bits.TrailingZeros64(mk)
			g := w*64 + bit
			if c := caps.Get(bit); c != m.caps[g] {
				b.t.Fatalf("frame %d sweep: callback read granule %d = %v, model slot %v", i, g, c, m.caps[g])
			}
			got = append(got, g)
			if valueBit(m.caps[g], rev) {
				cur.Revoke(g)
				m.tags[w] &^= 1 << uint(bit)
				wantRevoked++
			}
			if disturb != nil {
				disturb(g, w, mk&(mk-1))
			}
		}
	})
	if len(got) != len(want) || visited != len(want) || revoked != wantRevoked {
		b.t.Fatalf("frame %d sweep: callback saw %d granules, visited=%d revoked=%d; model %d and %d",
			i, len(got), visited, revoked, len(want), wantRevoked)
	}
	for k := range want {
		if got[k] != want[k] {
			b.t.Fatalf("frame %d sweep, position %d: callback saw granule %d, model granule %d", i, k, got[k], want[k])
		}
	}
}

// sweepStoring runs sweep over frame i and, after the callback has handled
// the granule at position at (modulo the granules it will visit), stores a
// new capability into another quarter (quarter+1+shift%3) of that
// granule's word: the first tag in a quarter of a word whose 16-slot block
// holds another one upgrades the word to 64 slots while the callback is
// mid-word. The stored granule's index within its quarter is offset past
// that of the next granule the callback will read, so offset 0 lands on
// the slot a block shared between quarters would alias. action adds a
// second change to the word: 1 clears the next granule's tag before the
// store, 2 clears every tag of the word before it, 3 stores a new value
// into the next granule after it. The callback's later reads must still
// match the model's slots, cleared ones included.
func (b *capBank) sweepStoring(i int, rev uint, at, action, shift, offset int) {
	tagged := 0
	for _, w := range b.model[i].tags {
		tagged += bits.OnesCount64(w)
	}
	n := 0
	b.sweep(i, rev, -1, func(g, w int, rest uint64) {
		if n++; n != at%max(tagged, 1)+1 {
			return
		}
		next := g
		if rest != 0 {
			next = w*64 + bits.TrailingZeros64(rest)
		}
		switch {
		case action == 1 && next != g:
			b.clearTag(i, next)
		case action == 2:
			b.storeData(i, w*64, 64)
		}
		q := (g>>4&3 + 1 + shift%3) & 3
		b.storeCap(i, w*64+q*16+(next+offset)&15, true)
		if action == 3 && next != g {
			b.storeCap(i, next, true)
		}
	})
}

// check compares every granule of frame i, and its ForEachTag stream,
// against the model.
func (b *capBank) check(i int) {
	m := &b.model[i]
	id := b.ids[i]
	for g := 0; g < GranulesPerPage; g++ {
		if got, want := b.p.LoadCap(id, g), m.load(g); got != want {
			b.t.Fatalf("frame %d granule %d: LoadCap = %v, model %v", i, g, got, want)
		}
	}
	g0 := 0
	b.p.ForEachTag(id, func(g int, c ca.Capability) {
		for ; g0 < g; g0++ {
			if m.tagged(g0) {
				b.t.Fatalf("frame %d: ForEachTag skipped tagged granule %d", i, g0)
			}
		}
		if !m.tagged(g) || c != m.caps[g] {
			b.t.Fatalf("frame %d: ForEachTag gave granule %d = %v, model %v", i, g, c, m.load(g))
		}
		g0 = g + 1
	})
	for ; g0 < GranulesPerPage; g0++ {
		if m.tagged(g0) {
			b.t.Fatalf("frame %d: ForEachTag missed tagged granule %d", i, g0)
		}
	}
}

// fuzzFrames is the size of FuzzCapStorage's bank.
const fuzzFrames = 12

// FuzzCapStorage decodes its input into capability stores (each with a
// distinct value), untagged stores, data-store spans, tag clears, frame
// copies, frame frees with reuse, sweeps that revoke by one bit of each
// value, and sweeps during which a capability lands in another quarter of
// the word being swept, applies them to a bank of frames and to a flat
// model (tag words and a whole page of values per frame), and requires the
// two to agree: LoadCap on the touched frame after every operation, the
// values every sweep callback read, and at the end every granule and
// ForEachTag stream of every frame.
func FuzzCapStorage(f *testing.F) {
	// Each operation is four bytes: opcode, frame, granule, argument.
	f.Add([]byte{0, 0, 3, 0, 0, 0, 200, 0, 5, 0, 0, 2})
	f.Add([]byte{0, 1, 70, 0, 0, 1, 130, 0, 3, 2, 1, 0, 5, 2, 0, 1, 4, 1, 0, 0, 0, 1, 70, 0})
	f.Add([]byte{0, 3, 0, 0, 0, 3, 64, 0, 0, 3, 128, 0, 0, 3, 192, 0, 1, 3, 10, 150, 2, 3, 128, 0, 5, 3, 0, 0x80})
	f.Add([]byte{0, 4, 255, 0, 3, 5, 4, 0, 0, 4, 5, 0, 3, 4, 6, 0, 6, 5, 9, 1, 4, 5, 0, 0, 3, 5, 4, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 65, 0, 3, 7, 0, 0, 4, 0, 0, 0, 0, 8, 2, 0, 3, 9, 7, 0, 5, 9, 0, 0x83})
	// A sweep of a 16-slot word that upgrades it after its first granule,
	// then stores a new value into the granule it reads next.
	f.Add([]byte{0, 2, 66, 0, 0, 2, 68, 0, 7, 2, 7, 0x03})
	// The same, clearing the next granule's tag (action 1) and every tag of
	// the word (action 2) before the upgrade.
	f.Add([]byte{0, 6, 130, 0, 0, 6, 131, 0, 0, 6, 140, 0, 7, 6, 7, 0x11, 7, 6, 7, 0x22})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := newCapBank(t, fuzzFrames)
		for ; len(data) >= 4; data = data[4:] {
			op, i, g, arg := data[0]%8, int(data[1])%fuzzFrames, int(data[2]), data[3]
			switch op {
			case 0, 6:
				b.storeCap(i, g, op == 0 || arg&1 == 0)
			case 1:
				n := 1 + int(arg)%(GranulesPerPage-g)
				b.storeData(i, g, n)
			case 2:
				b.clearTag(i, g)
			case 3:
				b.copyFrame(i, int(arg)%fuzzFrames)
			case 4:
				b.reuseFrame(i)
			case 5:
				hide := -1
				if arg&0x80 != 0 {
					hide = int(arg>>3) & 7
				}
				b.sweep(i, uint(arg&7), hide, nil)
			case 7:
				b.sweepStoring(i, uint(g&7), g>>3, int(arg&3), int(arg>>2&3), int(arg>>4&3))
			}
			b.check(i)
		}
		for i := range b.ids {
			b.check(i)
			b.sweep(i, 0, -1, nil)
			b.check(i)
		}
	})
}

// blocks counts a frame's 16-slot and 64-slot capability blocks.
func blocks(p *Phys, id FrameID) (parts, fulls int) {
	f := p.frame(id)
	if f.caps == nil {
		return 0, 0
	}
	for _, wc := range f.caps {
		if wc.part != nil {
			parts++
		}
		if wc.full != nil {
			fulls++
		}
	}
	return parts, fulls
}

// TestCapStorageFollowsLiveTags pins capability storage to what the tag
// words hold: a frame with one capability costs a directory and one
// 16-slot block, not a page of values; a frame with capabilities in one
// quarter of every word holds one 16-slot block per word; a word with
// capabilities in two quarters holds one 64-slot block with both
// quarters' values; and a block freed with its frame serves the next word
// that needs one without a heap allocation.
func TestCapStorageFollowsLiveTags(t *testing.T) {
	const frames = 1024
	p := NewPhys(frames)
	ids := make([]FrameID, frames)
	for i := range ids {
		ids[i] = mustAlloc(t, p)
	}
	c := ca.NewRoot(0x1000, ca.GranuleSize, ca.PermsData)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, id := range ids {
		p.StoreCap(id, 5, c)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / frames; per >= 1<<10 {
		t.Errorf("one capability in word 0 allocated %d B per frame, want under 1 KiB", per)
	}
	if parts, fulls := blocks(p, ids[0]); parts != 1 || fulls != 0 {
		t.Errorf("frame with one capability holds %d 16-slot and %d 64-slot blocks, want 1 and 0", parts, fulls)
	}

	full := ids[1]
	for w := 0; w < tagWords; w++ {
		p.StoreCap(full, w*64+7, c)
	}
	if parts, fulls := blocks(p, full); parts != tagWords || fulls != 0 {
		t.Errorf("frame with one quarter of every word tagged holds %d 16-slot and %d 64-slot blocks, want %d and 0",
			parts, fulls, tagWords)
	}

	two := ids[3]
	c2 := ca.NewRoot(0x2000, ca.GranuleSize, ca.PermsData)
	p.StoreCap(two, 5, c)
	p.StoreCap(two, 40, c2)
	if parts, fulls := blocks(p, two); parts != 0 || fulls != 1 {
		t.Errorf("word with two quarters tagged holds %d 16-slot and %d 64-slot blocks, want 0 and 1", parts, fulls)
	}
	if p.LoadCap(two, 5) != c || p.LoadCap(two, 40) != c2 {
		t.Error("the upgrade to a 64-slot block lost a value")
	}

	id := ids[2]
	for g := 0; g < 16; g++ {
		p.StoreCap(id, g, c)
	}
	old := p.frame(id).caps[0].part
	allocs := testing.AllocsPerRun(100, func() {
		p.FreeFrame(id)
		id, _ = p.AllocFrame()
		p.StoreCap(id, 5, c)
	})
	if allocs != 0 {
		t.Errorf("a store into a reused frame made %v heap allocations, want 0", allocs)
	}
	if p.frame(id).caps[0].part != old {
		t.Error("the reused frame's store did not take the recycled block")
	}
	for g := 0; g < 64; g++ {
		if got := p.LoadCap(id, g); got.Tag() != (g == 5) {
			t.Errorf("granule %d of the recycled block loads %v", g, got)
		}
	}
}

// TestSweepTagsWordsAllocatesNothing pins a word-wise sweep at no heap
// allocation per call, over sparse and dense words, revoking and not: the
// revocation sweep calls it once per resident capability-bearing page.
func TestSweepTagsWordsAllocatesNothing(t *testing.T) {
	p := NewPhys(1)
	id := mustAlloc(t, p)
	for g := 0; g < 64; g++ {
		p.StoreCap(id, g, value(uint64(g)))
	}
	p.StoreCap(id, 70, value(70))
	p.StoreCap(id, 200, value(200))
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		p.SweepTagsWords(id, func(cur *SweepCursor, w int, mask uint64, caps WordCaps) {
			for mk := mask; mk != 0; mk &= mk - 1 {
				bit := bits.TrailingZeros64(mk)
				if caps.Get(bit).Base() == 200*ca.GranuleSize {
					cur.Revoke(w*64 + bit)
					n++
				}
			}
		})
		p.StoreCap(id, 200, value(200))
	})
	if allocs != 0 {
		t.Errorf("SweepTagsWords made %v heap allocations per call, want 0", allocs)
	}
	if n != 101 {
		t.Errorf("the sweeps revoked %d capabilities, want 101", n)
	}
}
