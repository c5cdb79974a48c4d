package kernel

import (
	"math/bits"

	"repro/internal/ca"
	"repro/internal/shadow"
	"repro/internal/tmem"
	"repro/internal/vm"
)

// tagTableBase is the virtual alias of the memory-controller tag table
// used for cost attribution of CLoadTags-style tag reads.
const tagTableBase = 0x7000_0000_0000

// tagBytesPerPage is the tag metadata volume per 4 KiB page (256 granules
// × 1 bit ⇒ 32 bytes).
const tagBytesPerPage = 32

// SweepPage scans one resident page for revoked capabilities: every tagged
// granule's base is probed in the revocation bitmap and matching tags are
// cleared. Reading the page and probing the bitmap are charged to this
// thread at its agent attribution. Returns (capabilities inspected,
// capabilities revoked). The page's capability-dirty bit is cleared.
//
// The scan works a 64-granule tag word at a time: tmem hands it whole
// nonzero tag words (frame summaries skip empty words and frames in O(1))
// and shadow probes go through PaintedWord's chunk cache, with no closure
// call per tagged granule and no chunk-map lookup per probe. The simulated
// recipe is still per granule — one data-line read, one bitmap probe and,
// on revocation, one write per tagged granule, ticked in ascending order
// (the bus cache is stateful, so even the order of accesses matters). It
// is the recipe of the original one-callback-per-granule sweep, which
// survives in this package's tests as the reference SweepPage is checked
// against.
func (t *Thread) SweepPage(vpn uint64, pte *vm.PTE) (visited, revoked int) {
	core := t.Sim.CoreID()
	b := t.P.M.Bus
	sh := t.P.Shadow
	opCost := t.P.M.Costs.Op
	// Clear the capability-dirty bit before reading a single granule: any
	// capability store that lands while the scan is in progress re-marks
	// the page, so Cornucopia's stop-the-world phase will re-visit it. If
	// the bit were cleared after the scan, a store racing the sweep could
	// be lost.
	pte.Bits &^= vm.PTECapDirty
	// Read the page's tag metadata (CLoadTags): 2 tag bits per granule →
	// one tag-table line covers two pages. Untagged lines of the page are
	// never touched; only granules that actually hold capabilities cost
	// data reads below. This is what makes sweeping sparse pages cheap on
	// Morello.
	t.Sim.Tick(b.AccessRange(core, tagTableBase+vpn*tagBytesPerPage, tagBytesPerPage, t.Agent, false))
	return t.P.M.Phys.SweepTagsWords(pte.Frame, func(cur *tmem.SweepCursor, w int, mask uint64, caps tmem.WordCaps) {
		wordVA := vm.TagWordVA(vpn, w)
		for m := mask; m != 0; {
			bit := bits.TrailingZeros64(m)
			m &^= 1 << uint(bit)
			g := w*64 + bit
			c := caps.Get(bit)
			// Read the tagged granule's data line (repeats within a line
			// hit in cache) and probe the revocation bitmap at the base.
			t.Sim.Tick(b.Access(core, wordVA+uint64(bit)*ca.GranuleSize, t.Agent, false))
			t.Sim.Tick(opCost + b.Access(core, shadow.VAOf(c.Base()), t.Agent, false))
			if sh.PaintedWord(c.Base())&(1<<(c.Base()/ca.GranuleSize%64)) != 0 {
				// Clearing the tag dirties the line we already hold.
				t.Sim.Tick(b.Access(core, wordVA+uint64(bit)*ca.GranuleSize, t.Agent, true))
				cur.Revoke(g)
			}
		}
	})
}
