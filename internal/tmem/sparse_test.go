package tmem

import (
	"math/rand"
	"testing"

	"repro/internal/ca"
)

// TestStoreDataMatchesGranuleClears is the differential suite for the
// bank's word-masked tag clears: a randomized mix of every tag mutation the
// package offers (cap stores, data stores, granule clears, frame frees and
// reuse, fork-style copies) drives two banks, identical except that the
// reference bank clears data-store tags granule by granule
// (storeDataGranules). Both must end with identical tag words in every
// frame, and on every live frame of the production bank the
// summary-driven HasTags, ForEachTag and TagCount must agree with a
// brute-force TagSet probe.
func TestStoreDataMatchesGranuleClears(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p, ref := NewPhys(1<<14), NewPhys(1<<14)
	alloc := func() FrameID {
		id, err := p.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		if rid, err := ref.AllocFrame(); err != nil || rid != id {
			t.Fatalf("reference bank allocated %d (%v), production %d", rid, err, id)
		}
		return id
	}
	var live []FrameID
	for i := 0; i < 5000; i++ {
		live = append(live, alloc())
	}
	cap0 := ca.NewRoot(0, 16, ca.PermsData)
	for step := 0; step < 20000; step++ {
		// Half the operations land on 64 hot frames, so data stores meet
		// densely tagged words as well as sparse ones.
		id := live[rng.Intn(len(live))]
		if rng.Intn(2) == 0 {
			id = live[rng.Intn(64)]
		}
		switch rng.Intn(6) {
		case 0, 1:
			g := rng.Intn(GranulesPerPage)
			for end := g + rng.Intn(64); g <= end && g < GranulesPerPage; g++ {
				p.StoreCap(id, g, cap0)
				ref.StoreCap(id, g, cap0)
			}
		case 2:
			g := rng.Intn(GranulesPerPage)
			n := 1 + rng.Intn(GranulesPerPage-g)
			p.StoreData(id, g, n)
			ref.storeDataGranules(id, g, n)
		case 3:
			g := rng.Intn(GranulesPerPage)
			p.ClearTag(id, g)
			ref.ClearTag(id, g)
		case 4:
			src := live[rng.Intn(len(live))]
			p.CopyFrame(id, src)
			ref.CopyFrame(id, src)
		case 5:
			p.FreeFrame(id)
			ref.FreeFrame(id)
			nid := alloc()
			for i := range live {
				if live[i] == id {
					live[i] = nid
				}
			}
		}
	}
	for _, id := range live {
		if pt, rt := p.frame(id).tags, ref.frame(id).tags; pt != rt {
			t.Fatalf("frame %d: tag words %x, reference %x", id, pt, rt)
		}
	}
	// Per-frame agreement: the summary-driven HasTags, ForEachTag and
	// TagCount must match a brute-force TagSet probe on every live frame.
	for _, id := range live {
		want := 0
		for g := 0; g < GranulesPerPage; g++ {
			if p.TagSet(id, g) {
				want++
			}
		}
		if p.HasTags(id) != (want > 0) {
			t.Fatalf("frame %d: HasTags=%v with %d tagged granules", id, p.HasTags(id), want)
		}
		got, prev := 0, -1
		p.ForEachTag(id, func(g int, _ ca.Capability) {
			if g <= prev {
				t.Fatalf("frame %d: ForEachTag not ascending (%d after %d)", id, g, prev)
			}
			prev = g
			got++
		})
		if got != want || p.TagCount(id) != want {
			t.Fatalf("frame %d: ForEachTag=%d TagCount=%d, probe=%d", id, got, p.TagCount(id), want)
		}
	}
}

// TestCapsRecyclingInvisible pins the tag-guard argument that makes dirty
// capability-block recycling safe: a frame reusing a freed frame's storage
// must read as entirely untagged data until it stores its own
// capabilities. (TestCapStorageFollowsLiveTags checks the stale slots of a
// block that a store has taken from the recycling list.)
func TestCapsRecyclingInvisible(t *testing.T) {
	p := NewPhys(64)
	a := mustAlloc(t, p)
	secret := ca.NewRoot(0xdead0, 16, ca.PermsData)
	for g := 0; g < GranulesPerPage; g++ {
		p.StoreCap(a, g, secret)
	}
	p.FreeFrame(a)
	b := mustAlloc(t, p)
	if p.HasTags(b) || p.TagCount(b) != 0 {
		t.Fatal("fresh frame reports tags")
	}
	for g := 0; g < GranulesPerPage; g++ {
		if c := p.LoadCap(b, g); c.Tag() {
			t.Fatalf("granule %d of a fresh frame loads a tagged capability", g)
		}
	}
	n := 0
	p.ForEachTag(b, func(int, ca.Capability) { n++ })
	if n != 0 {
		t.Fatalf("ForEachTag visited %d granules of a fresh frame", n)
	}
}
