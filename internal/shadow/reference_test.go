package shadow

import "repro/internal/ca"

// setFlat is the granule-by-granule reference for set: the paint path the
// word-masked one replaced, kept as the other side of
// TestFlatFastSetEquivalence. It maintains exactly the same chunk,
// summary and group state as set, so the two are interchangeable at any
// point.
func (b *Bitmap) setFlat(addr, length uint64, v bool) {
	b.cacheOK = false
	for g := addr / ca.GranuleSize; g < (addr+length)/ca.GranuleSize; g++ {
		ck, word, bit := g/chunkGranules, int(g%chunkGranules)/64, uint(g%64)
		grp := b.groups[ck>>6]
		c := b.chunk(ck)
		if c == nil {
			if !v {
				continue
			}
			grp, c = b.addChunk(grp, ck)
		}
		old := c.words[word]
		if v {
			c.words[word] |= 1 << bit
			if c.words[word] != old {
				b.painted++
				c.painted++
				if old == 0 {
					c.sum[word>>6] |= 1 << uint(word&63)
				}
			}
		} else {
			c.words[word] &^= 1 << bit
			if c.words[word] != old {
				b.painted--
				c.painted--
				if c.words[word] == 0 {
					c.sum[word>>6] &^= 1 << uint(word&63)
				}
				if c.painted == 0 {
					b.freeChunk(grp, ck)
				}
			}
		}
	}
}
