package kernel

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bus"
	"repro/internal/ca"
	"repro/internal/shadow"
	"repro/internal/tmem"
	"repro/internal/vm"
)

// sweepPageGranule is the original one-callback-per-granule sweep: the
// reference SweepPage's word-at-a-time scan replaced, kept as the other
// side of TestSweepPageMatchesGranuleReference. It issues the simulated
// recipe SweepPage must reproduce exactly — the same bus accesses in the
// same order, ticked at the same boundaries, with the same revocations.
func (t *Thread) sweepPageGranule(vpn uint64, pte *vm.PTE) (visited, revoked int) {
	core := t.Sim.CoreID()
	b := t.P.M.Bus
	pte.Bits &^= vm.PTECapDirty
	t.Sim.Tick(b.AccessRange(core, tagTableBase+vpn*tagBytesPerPage, tagBytesPerPage, t.Agent, false))
	_, rev := t.P.M.Phys.SweepTags(pte.Frame, func(g int, c ca.Capability) bool {
		visited++
		t.Sim.Tick(b.Access(core, vpn<<vm.PageShift+uint64(g)*ca.GranuleSize, t.Agent, false))
		t.Sim.Tick(t.P.M.Costs.Op + b.Access(core, shadow.VAOf(c.Base()), t.Agent, false))
		if t.P.Shadow.Test(c.Base()) {
			t.Sim.Tick(b.Access(core, vpn<<vm.PageShift+uint64(g)*ca.GranuleSize, t.Agent, true))
			return true
		}
		return false
	})
	return visited, rev
}

// sweepCase is one randomized heap to sweep.
type sweepCase struct {
	seed    int64
	density float64 // upper bound of each page's tagged-granule fraction
	painted float64 // fraction of heap granules in quarantine
	filter  bool    // arm Phys.SweepFilter, keyed on the sweeper's clock
}

// sweepOutcome is everything a sweep observably changes or charges.
type sweepOutcome struct {
	Pages   [][2]int // (visited, revoked) per swept page, in sweep order
	Clock   uint64   // sweeper's clock after the last page
	CPU     uint64   // sweeper's busy cycles
	Bus     bus.Stats
	Tags    []uint64 // tag bitmap of every mapped page
	PTEs    []vm.PTE // every mapped PTE
	Peer    []uint64 // sweeper's clock as seen by a peer at each of its slices
	Filters int      // SweepFilter consultations
}

const sweepHeapPages = 24

// runSweepCase builds a machine, populates a heap as c describes and
// sweeps every mapped page with sweep.
func runSweepCase(t *testing.T, c sweepCase, sweep func(*Thread, uint64, *vm.PTE) (int, int)) sweepOutcome {
	t.Helper()
	cfg := DefaultMachineConfig()
	cfg.Sim.Cores = 4
	// A small skew window makes the peer rotate with the sweeper almost
	// every tick, so its log records the sweeper's tick boundaries.
	cfg.Sim.SkewQuantum = 64
	m := NewMachine(cfg)
	p := m.NewProcess(c.seed)
	var out sweepOutcome
	rng := rand.New(rand.NewSource(c.seed))

	p.Spawn("app", []int{3}, func(th *Thread) {
		_, root := mustMmap(t, th, sweepHeapPages*vm.PageSize)
		granules := sweepHeapPages * tmem.GranulesPerPage
		for pg := 0; pg < sweepHeapPages; pg++ {
			d := c.density * rng.Float64()
			for g := 0; g < tmem.GranulesPerPage; g++ {
				if rng.Float64() >= d {
					continue
				}
				target := root.Base() + uint64(rng.Intn(granules))*ca.GranuleSize
				obj, err := root.WithAddr(target).SetBoundsExact(ca.GranuleSize)
				if err != nil {
					t.Fatal(err)
				}
				if err := th.StoreCap(root, uint64(pg*tmem.GranulesPerPage+g)*ca.GranuleSize, obj); err != nil {
					t.Fatal(err)
				}
			}
		}
		for g := 0; g < granules; g++ {
			if rng.Float64() < c.painted {
				if err := th.PaintShadow(root, root.Base()+uint64(g)*ca.GranuleSize, ca.GranuleSize); err != nil {
					t.Fatal(err)
				}
			}
		}
		if c.filter {
			m.Phys.SweepFilter = func(id tmem.FrameID, g int, _ ca.Capability) bool {
				out.Filters++
				h := uint64(id)*0x9e3779b97f4a7c15 ^ uint64(g)<<32 ^ th.Sim.Now()
				h ^= h >> 29
				return h*0xbf58476d1ce4e5b9>>61 == 0 // hide about 1 in 8
			}
		}
		done := false
		th.P.Spawn("peer", []int{1}, func(peer *Thread) {
			for !done {
				out.Peer = append(out.Peer, th.Sim.Now())
				peer.Sim.Tick(37)
			}
		})
		type page struct {
			vpn uint64
			pte *vm.PTE
		}
		var pages []page
		th.P.AS.ForEachMappedPage(func(vpn uint64, pte *vm.PTE) bool {
			pages = append(pages, page{vpn, pte})
			return true
		})
		for _, pg := range pages {
			v, r := sweep(th, pg.vpn, pg.pte)
			out.Pages = append(out.Pages, [2]int{v, r})
		}
		done = true
		out.Clock, out.CPU = th.Sim.Now(), th.Sim.CPU()
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}

	out.Bus = m.Bus.Stats()
	p.AS.ForEachMappedPage(func(vpn uint64, pte *vm.PTE) bool {
		out.PTEs = append(out.PTEs, *pte)
		var words [tmem.GranulesPerPage / 64]uint64
		for g := 0; g < tmem.GranulesPerPage; g++ {
			if m.Phys.TagSet(pte.Frame, g) {
				words[g/64] |= 1 << uint(g%64)
			}
		}
		out.Tags = append(out.Tags, words[:]...)
		return true
	})
	return out
}

// TestSweepPageMatchesGranuleReference is the sweep kernel's differential:
// identically built machines sweep the same randomized heaps, one through
// SweepPage and one through the per-granule reference, over a range of
// tag densities and quarantined fractions, with and without a SweepFilter
// whose decisions hash the sweeper's clock. Every per-page (visited,
// revoked) pair, the sweeper's clock and CPU, the bus statistics per core
// and agent, the post-sweep tags, every PTE and the clock a peer thread
// observes at each of its slices must be identical.
func TestSweepPageMatchesGranuleReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var revoked, filtered int
	for seed := int64(1); seed <= 6; seed++ {
		for _, filter := range []bool{false, true} {
			c := sweepCase{
				seed:    seed,
				density: []float64{0.05, 0.3, 1}[rng.Intn(3)],
				painted: []float64{0.002, 0.05, 0.3}[rng.Intn(3)],
				filter:  filter,
			}
			// Every page is private (fork copies eagerly); the names keep
			// the cow=false segment they have always carried, so that test
			// histories stay comparable.
			t.Run(fmt.Sprintf("seed=%d/cow=false/filter=%v", seed, filter), func(t *testing.T) {
				got := runSweepCase(t, c, (*Thread).SweepPage)
				want := runSweepCase(t, c, (*Thread).sweepPageGranule)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("SweepPage diverges from the granule reference on %+v:\n got  %+v\n want %+v", c, got, want)
				}
				for _, pr := range got.Pages {
					revoked += pr[1]
				}
				filtered += got.Filters
			})
		}
	}
	if revoked == 0 || filtered == 0 {
		t.Fatalf("cases too idle to differentiate: %d revoked, %d filter calls", revoked, filtered)
	}
}
