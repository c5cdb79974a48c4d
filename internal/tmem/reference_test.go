package tmem

// The flat references for the bank's fast paths: the implementations the
// summary tree and the word-masked tag clears replaced, kept as the other
// side of TestTaggedFrameIterationMatchesFlat.

// forEachTaggedFrameFlat is the reference for ForEachTaggedFrame: a linear
// scan of the whole frame table checking each frame's summary, O(bank
// size) where the summary walk is O(live tags).
func (p *Phys) forEachTaggedFrameFlat(fn func(id FrameID) bool) bool {
	for i := 0; i < p.nframes; i++ {
		f := p.slot(FrameID(i))
		if f.inUse && f.summary != 0 {
			if !fn(FrameID(i)) {
				return false
			}
		}
	}
	return true
}

// storeDataGranules is the reference for StoreData: the same tag clears,
// one granule at a time.
func (p *Phys) storeDataGranules(id FrameID, g, n int) {
	checkGranule(g)
	if n <= 0 {
		return
	}
	checkGranule(g + n - 1)
	f := p.frame(id)
	for i := g; i < g+n; i++ {
		p.clearTag(id, f, i>>6, 1<<(uint(i)&63))
	}
}
