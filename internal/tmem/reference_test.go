package tmem

// storeDataGranules is the reference for StoreData's word-masked tag
// clears: the same clears, one granule at a time, kept as the other side
// of TestStoreDataMatchesGranuleClears.
func (p *Phys) storeDataGranules(id FrameID, g, n int) {
	checkGranule(g)
	if n <= 0 {
		return
	}
	checkGranule(g + n - 1)
	f := p.frame(id)
	for i := g; i < g+n; i++ {
		f.clearTag(i>>6, 1<<(uint(i)&63))
	}
}
