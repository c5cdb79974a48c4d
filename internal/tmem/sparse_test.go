package tmem

import (
	"math/rand"
	"testing"

	"repro/internal/ca"
)

// collectTagged walks the bank with the given iterator and returns the
// visited frame ids in visit order.
func collectTagged(iter func(func(FrameID) bool) bool) []FrameID {
	var out []FrameID
	iter(func(id FrameID) bool {
		out = append(out, id)
		return true
	})
	return out
}

// TestTaggedFrameIterationMatchesFlat is the sparse-vs-flat differential
// suite for the bank: a randomized mix of every tag mutation the package
// offers (cap stores, data stores, granule clears, frame frees and reuse,
// fork-style copies) drives two banks, identical except that the
// reference bank clears data-store tags granule by granule
// (storeDataGranules). Both must end with identical tag words in every
// frame, and on the production bank the region→group descent and the
// linear flat scan (forEachTaggedFrameFlat) must report exactly the same
// tagged-frame set, in the same ascending order, with TaggedFrames
// agreeing with both.
func TestTaggedFrameIterationMatchesFlat(t *testing.T) {
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
	// A spread-out bank: allocate well past one frame-group (64 frames)
	// and one region word (4096 frames) so the descent crosses summary
	// word boundaries.
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
	sparse := collectTagged(p.ForEachTaggedFrame)
	flat := collectTagged(p.forEachTaggedFrameFlat)
	if refFlat := collectTagged(ref.forEachTaggedFrameFlat); len(refFlat) != len(flat) {
		t.Fatalf("reference bank holds %d tagged frames, production %d", len(refFlat), len(flat))
	}
	if len(sparse) != len(flat) {
		t.Fatalf("sparse walk found %d tagged frames, flat scan %d", len(sparse), len(flat))
	}
	for i := range sparse {
		if sparse[i] != flat[i] {
			t.Fatalf("position %d: sparse %d vs flat %d", i, sparse[i], flat[i])
		}
		if i > 0 && sparse[i] <= sparse[i-1] {
			t.Fatalf("sparse walk not ascending: %d after %d", sparse[i], sparse[i-1])
		}
	}
	if p.TaggedFrames() != len(flat) {
		t.Fatalf("TaggedFrames() = %d, flat scan found %d", p.TaggedFrames(), len(flat))
	}
	// Per-frame agreement: the summary-driven ForEachTag and HasTags must
	// match a brute-force TagSet probe on every tagged frame.
	for _, id := range flat {
		if !p.HasTags(id) {
			t.Fatalf("flat-tagged frame %d reports HasTags=false", id)
		}
		want := 0
		for g := 0; g < GranulesPerPage; g++ {
			if p.TagSet(id, g) {
				want++
			}
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

// TestForEachTagAllAscending pins the bank-wide audit order: (frame,
// granule) pairs arrive strictly ascending, across frame-group and region
// boundaries.
func TestForEachTagAllAscending(t *testing.T) {
	p := NewPhys(1 << 13)
	// Frames straddling group (64) and region-word (4096) boundaries.
	targets := map[int][]int{63: {5, 200}, 64: {0}, 4095: {255}, 4096: {1, 64}, 4100: {17}}
	maxFrame := 4100
	ids := make([]FrameID, maxFrame+1)
	for i := 0; i <= maxFrame; i++ {
		id, err := p.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	want := 0
	for f, gs := range targets {
		for _, g := range gs {
			p.StoreCap(ids[f], g, ca.NewRoot(uint64(g), 16, ca.PermsData))
			want++
		}
	}
	lastF, lastG, n := -1, -1, 0
	p.ForEachTagAll(func(id FrameID, g int, c ca.Capability) {
		if int(id) < lastF || (int(id) == lastF && g <= lastG) {
			t.Fatalf("not ascending: (%d,%d) after (%d,%d)", id, g, lastF, lastG)
		}
		if !c.Tag() {
			t.Fatalf("untagged capability delivered at (%d,%d)", id, g)
		}
		lastF, lastG = int(id), g
		n++
	})
	if n != want {
		t.Fatalf("visited %d tagged granules, want %d", n, want)
	}
}

// TestTaggedFrameWalkSurvivesFrameTableGrowth extends the stable-pointer
// guarantee of TestSweepSurvivesFrameTableGrowth to the bank-level walk: a
// ForEachTaggedFrame iteration caught mid-walk by frame-table growth (an
// app-thread demand map during a virtual-time yield) must keep visiting
// the frames that were tagged when it started — the summary slices are
// indexed positionally, so append reallocation must not orphan the walk.
func TestTaggedFrameWalkSurvivesFrameTableGrowth(t *testing.T) {
	p := NewPhys(1 << 14)
	var tagged []FrameID
	for i := 0; i < 200; i++ {
		id, err := p.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			p.StoreCap(id, i%GranulesPerPage, ca.NewRoot(uint64(i), 16, ca.PermsData))
			tagged = append(tagged, id)
		}
	}
	grown := false
	var visited []FrameID
	p.ForEachTaggedFrame(func(id FrameID) bool {
		if !grown {
			// Grow well past any append capacity step of frames, groupSum
			// and regionSum while the walk is in flight (4097 frames forces
			// regionSum past one word too).
			for i := 0; i < 8000; i++ {
				if _, err := p.AllocFrame(); err != nil {
					t.Fatal(err)
				}
			}
			grown = true
		}
		visited = append(visited, id)
		return true
	})
	if len(visited) != len(tagged) {
		t.Fatalf("visited %d frames across growth, want %d", len(visited), len(tagged))
	}
	for i := range visited {
		if visited[i] != tagged[i] {
			t.Fatalf("position %d: visited %d, want %d", i, visited[i], tagged[i])
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
