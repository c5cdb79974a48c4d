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
// new capability into that granule's word, delta granules past the next
// granule the callback will read (modulo the word): delta 0 overwrites the
// next granule, 63 lands just below it and 1 just above it. A store into a
// granule without a slot inserts one while the callback is mid-word,
// shifting the values above it and, when the block is full, moving the
// word into a bigger block. action adds a second change to the word: 1
// clears the next granule's tag before the store, 2 clears every tag of
// the word before it, 3 stores a new value into the next granule after
// it. The callback's later reads must still match the model's slots,
// cleared ones included.
func (b *capBank) sweepStoring(i int, rev uint, at, action, delta int) {
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
		b.storeCap(i, w*64+(next+delta)&63, true)
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
// value, and sweeps during which a capability lands anywhere in the word
// being swept, applies them to a bank of frames and to a flat
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
	// Sweeps of a word with slots for granules 66 and 68, which after 66
	// overwrite the next granule (68) and then store it again (action 3).
	f.Add([]byte{0, 2, 66, 0, 0, 2, 68, 0, 7, 2, 7, 0x03})
	// Sweeps that store four and eight granules past the next one, after
	// clearing its tag (action 1) and every tag of the word (action 2).
	f.Add([]byte{0, 6, 130, 0, 0, 6, 131, 0, 0, 6, 140, 0, 7, 6, 7, 0x11, 7, 6, 7, 0x22})
	// Slots for granules 66, 68 and 70 fill three of a 4-slot block; after
	// 68 the sweep inserts a slot for 69, just below the granule it reads
	// next, which shifts 70's value up one place in the same block.
	f.Add([]byte{0, 8, 66, 0, 0, 8, 68, 0, 0, 8, 70, 0, 7, 8, 15, 0xfc})
	// Slots for granules 130, 131 and 140; after 130 the sweep inserts a
	// slot for 132, just above the granule it reads next, which shifts
	// 140's value; a second sweep inserts a slot for 133, two past the
	// next granule, into the full block, moving the word into an 8-slot
	// block, and then re-stores the next granule (action 3).
	f.Add([]byte{0, 9, 130, 0, 0, 9, 131, 0, 0, 9, 140, 0, 7, 9, 7, 0x04, 7, 9, 7, 0x0b})
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
				b.sweepStoring(i, uint(g&7), g>>3, int(arg&3), int(arg>>2))
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

// capacity returns the number of slots of frame id's block for tag word w,
// 0 if the word has none.
func capacity(p *Phys, id FrameID, w int) int {
	f := p.frame(id)
	if f.caps == nil {
		return 0
	}
	return len(f.caps[w].vals)
}

// TestCapStorageFollowsLiveTags pins capability storage to what the tag
// words have held: a frame with one capability costs a directory and a
// 1-slot block, not a page of values; a frame with one capability in every
// word holds a 1-slot block per word; 16 capabilities spread over all four
// quarters of a word share one 16-slot block; and the blocks freed with a
// frame serve the same stores into the reused frame without a heap
// allocation.
func TestCapStorageFollowsLiveTags(t *testing.T) {
	const frames = 1024
	p := NewPhys(frames + 2)
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
	if per := (after.TotalAlloc - before.TotalAlloc) / frames; per >= 256 {
		t.Errorf("one capability in word 0 allocated %d B per frame, want under 256 (a 128 B directory and a 32 B block)", per)
	}
	for w := 0; w < tagWords; w++ {
		want := 0
		if w == 0 {
			want = 1
		}
		if got := capacity(p, ids[0], w); got != want {
			t.Errorf("frame with one capability in word 0: word %d holds a %d-slot block, want %d", w, got, want)
		}
	}

	every := mustAlloc(t, p)
	for w := 0; w < tagWords; w++ {
		p.StoreCap(every, w*64+7, c)
	}
	for w := 0; w < tagWords; w++ {
		if got := capacity(p, every, w); got != 1 {
			t.Errorf("frame with one capability in every word: word %d holds a %d-slot block, want 1", w, got)
		}
	}

	dense := mustAlloc(t, p)
	var granules []int
	for q := 0; q < 4; q++ {
		for j := 0; j < 4; j++ {
			granules = append(granules, q*16+j*4+q)
		}
	}
	for k, g := range granules {
		p.StoreCap(dense, g, value(uint64(k)))
	}
	if got := capacity(p, dense, 0); got != 16 {
		t.Errorf("16 capabilities across the quarters of a word hold a %d-slot block, want 16", got)
	}
	for k, g := range granules {
		if got := p.LoadCap(dense, g); got != value(uint64(k)) {
			t.Errorf("granule %d loads %v after the word grew to 16 slots, want %v", g, got, value(uint64(k)))
		}
	}

	old := &p.frame(dense).caps[0].vals[0]
	allocs := testing.AllocsPerRun(100, func() {
		p.FreeFrame(dense)
		dense, _ = p.AllocFrame()
		for k, g := range granules {
			p.StoreCap(dense, g, value(uint64(k)))
		}
	})
	if allocs != 0 {
		t.Errorf("16 stores into a reused frame made %v heap allocations, want 0", allocs)
	}
	if &p.frame(dense).caps[0].vals[0] != old {
		t.Error("the reused frame's word did not take the recycled 16-slot block")
	}
	p.FreeFrame(dense)
	dense, _ = p.AllocFrame()
	p.StoreCap(dense, 5, c)
	for g := 0; g < 64; g++ {
		if got := p.LoadCap(dense, g); got.Tag() != (g == 5) {
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
