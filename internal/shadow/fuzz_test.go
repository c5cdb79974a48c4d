package shadow

import (
	"math/bits"
	"sort"
	"testing"

	"repro/internal/ca"
)

// groupSpan is the address space one group word of the chunk index covers.
const groupSpan = 64 * chunkSpan

// flatModel is the reference for FuzzShadow: the painted granules as a
// flat map from 64-granule word index to mask, with no chunks, summaries,
// groups or cache.
type flatModel map[uint64]uint64

func (m flatModel) set(addr, length uint64, v bool) {
	for g := addr / ca.GranuleSize; g < (addr+length)/ca.GranuleSize; g++ {
		if v {
			m[g/64] |= 1 << (g % 64)
		} else if m[g/64] &^= 1 << (g % 64); m[g/64] == 0 {
			delete(m, g/64)
		}
	}
}

func (m flatModel) test(g uint64) bool { return m[g/64]&(1<<(g%64)) != 0 }

// words returns the model's nonzero words in ascending order.
func (m flatModel) words() []uint64 {
	ws := make([]uint64, 0, len(m))
	for w := range m {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	return ws
}

// fuzzAddr maps two input bytes to a granule-aligned address near an
// edge. The first picks one of four groups and one of eight chunks in it:
// the first three, one in the middle and the last two of the group, and
// the first of the next group, so spans cross chunk and group edges. The
// second is a signed offset of up to 128 granules from that chunk's base.
func fuzzAddr(sel, off byte) uint64 {
	chunks := [8]uint64{0, 1, 2, 17, 32, 62, 63, 64}
	edge := uint64(sel&3)*groupSpan + chunks[sel>>2&7]*chunkSpan
	d := int64(int8(off)) * ca.GranuleSize
	if d < 0 && uint64(-d) > edge {
		return 0
	}
	return uint64(int64(edge) + d)
}

// fuzzLen maps an input byte to a span length: up to 191 granules, or one
// to four whole chunks' worth of granules for the top quarter of values.
func fuzzLen(n byte) uint64 {
	if n < 192 {
		return uint64(n) * ca.GranuleSize
	}
	return uint64(n-191)%4*chunkSpan + chunkSpan
}

// FuzzShadow decodes its input into Paint, Unpaint, Test, PaintedWord,
// CountPaintedInRange, AnyPaintedInRange and ForEachPaintedWord calls on
// one bitmap and checks every answer against a flat map of painted words.
// Every call is four bytes: the operation, an address near a 64 KiB chunk
// edge or a 4 MiB group edge (fuzzAddr's two bytes) and a length
// (fuzzLen), which also gives Test and PaintedWord an unaligned byte
// offset and ForEachPaintedWord the number of words after which it stops.
// At the end the painted count, the chunk count and the whole word stream
// must match the model.
func FuzzShadow(f *testing.F) {
	// Paint across the first chunk edge, probe both sides, unpaint half.
	f.Add([]byte{0, 4, 0xfc, 8, 2, 4, 0xfe, 0, 3, 4, 1, 5, 1, 4, 0, 4, 4, 4, 0xf0, 32, 6, 0, 0, 2})
	// Whole chunks across the last chunk of group 0 into group 1.
	f.Add([]byte{0, 20, 0x80, 200, 5, 28, 0, 64, 4, 24, 0, 255, 1, 24, 0x10, 193, 6, 0, 0, 3, 3, 28, 0xff, 9})
	// Paint and clear in three groups; a freed chunk probed through the cache.
	f.Add([]byte{0, 1, 3, 17, 0, 2, 0x90, 60, 0, 3, 5, 194, 3, 1, 3, 0, 1, 1, 3, 17, 3, 1, 3, 0, 2, 1, 3, 0, 6, 0, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		auth := ca.NewRoot(0, 1<<28, ca.PermsData|ca.PermPaint)
		b, m := New(), flatModel{}
		for i := 0; i+4 <= len(data); i += 4 {
			op, addr, n := data[i]%7, fuzzAddr(data[i+1], data[i+2]), data[i+3]
			length := fuzzLen(n)
			switch op {
			case 0, 1:
				var err error
				if op == 0 {
					err = b.Paint(auth, addr, length)
				} else {
					err = b.Unpaint(auth, addr, length)
				}
				if err != nil {
					t.Fatalf("call %d: paint %v [%#x,+%d): %v", i/4, op == 0, addr, length, err)
				}
				m.set(addr, length, op == 0)
			case 2:
				a := addr + uint64(n)%ca.GranuleSize
				if got, want := b.Test(a), m.test(a/ca.GranuleSize); got != want {
					t.Fatalf("call %d: Test(%#x) = %v, model %v", i/4, a, got, want)
				}
			case 3:
				a := addr + uint64(n)%(64*ca.GranuleSize)
				if got, want := b.PaintedWord(a), m[a/ca.GranuleSize/64]; got != want {
					t.Fatalf("call %d: PaintedWord(%#x) = %#x, model %#x", i/4, a, got, want)
				}
			case 4:
				want := 0
				for g := addr / ca.GranuleSize; g < (addr+length)/ca.GranuleSize; g++ {
					if m.test(g) {
						want++
					}
				}
				if got := b.CountPaintedInRange(addr, length); got != want {
					t.Fatalf("call %d: CountPaintedInRange(%#x, %d) = %d, model %d", i/4, addr, length, got, want)
				}
			case 5:
				want := false
				for g := addr / ca.GranuleSize; g < (addr+length)/ca.GranuleSize && !want; g++ {
					want = m.test(g)
				}
				if got := b.AnyPaintedInRange(addr, length); got != want {
					t.Fatalf("call %d: AnyPaintedInRange(%#x, %d) = %v, model %v", i/4, addr, length, got, want)
				}
			case 6:
				checkWords(t, b, m, 1+int(n%8))
			}
		}
		checkWords(t, b, m, -1)
		var painted uint64
		chunks := map[uint64]bool{}
		for w, mask := range m {
			painted += uint64(bits.OnesCount64(mask))
			chunks[w*64/chunkGranules] = true
		}
		if b.PaintedGranules() != painted {
			t.Fatalf("PaintedGranules = %d, model %d", b.PaintedGranules(), painted)
		}
		if b.ChunkCount() != len(chunks) {
			t.Fatalf("ChunkCount = %d, model %d chunks with a painted granule", b.ChunkCount(), len(chunks))
		}
	})
}

// checkWords walks ForEachPaintedWord, stopping after limit words (never,
// for a negative limit), and requires the model's words in order: a walk
// stopped early must report it, and a complete one must visit every word.
func checkWords(t *testing.T, b *Bitmap, m flatModel, limit int) {
	t.Helper()
	want := m.words()
	n := 0
	done := b.ForEachPaintedWord(func(base, mask uint64) bool {
		if n >= len(want) {
			t.Fatalf("ForEachPaintedWord visited {%#x %#x} past the model's %d words", base, mask, len(want))
		}
		if w := want[n]; base != w*64*ca.GranuleSize || mask != m[w] {
			t.Fatalf("ForEachPaintedWord word %d = {%#x %#x}, model {%#x %#x}",
				n, base, mask, w*64*ca.GranuleSize, m[w])
		}
		n++
		return n != limit
	})
	if stopped := limit > 0 && limit <= len(want); done == stopped || (!stopped && n != len(want)) {
		t.Fatalf("ForEachPaintedWord returned %v after %d of %d words (limit %d)", done, n, len(want), limit)
	}
}
