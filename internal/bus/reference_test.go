package bus

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refBus is the original struct-array cache model: every way carries a
// valid bit, a dirty bit and a last-use tick, a lookup scans the set, and a
// miss evicts the first invalid way, else the way with the oldest tick. It
// is the reference the recency-ordered Bus must agree with, call for call.
type refBus struct {
	cfg       Config
	caches    []refCache
	lineShift uint
	stats     Stats
}

type refLine struct {
	tag   uint64
	lru   uint64
	valid bool
	dirty bool
}

type refCache struct {
	lines []refLine // Sets*Ways, set-major
	tick  uint64
}

func newRef(ncores int, cfg Config) *refBus {
	shift := uint(0)
	for l := cfg.LineSize; l > 1; l >>= 1 {
		shift++
	}
	b := &refBus{cfg: cfg, lineShift: shift}
	b.caches = make([]refCache, ncores)
	for i := range b.caches {
		b.caches[i].lines = make([]refLine, cfg.Sets*cfg.Ways)
	}
	b.stats.DRAMByCore = make([]uint64, ncores)
	return b
}

func (b *refBus) Access(core int, addr uint64, agent Agent, write bool) uint64 {
	c := &b.caches[core]
	c.tick++
	b.stats.Accesses++
	lineAddr := addr >> b.lineShift
	set := int(lineAddr % uint64(b.cfg.Sets))
	ways := c.lines[set*b.cfg.Ways : (set+1)*b.cfg.Ways]

	for i := range ways {
		if ways[i].valid && ways[i].tag == lineAddr {
			ways[i].lru = c.tick
			if write {
				ways[i].dirty = true
			}
			return b.cfg.HitCycles
		}
	}

	b.stats.Misses++
	b.stats.DRAMByAgent[agent]++
	b.stats.DRAMByCore[core]++
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	cost := b.cfg.MissCycles
	if ways[victim].valid && ways[victim].dirty {
		b.stats.DRAMByAgent[agent]++
		b.stats.DRAMByCore[core]++
		cost += b.cfg.WritebackCycles
	}
	ways[victim] = refLine{tag: lineAddr, lru: c.tick, valid: true, dirty: write}
	return cost
}

func (b *refBus) AccessRange(core int, addr, size uint64, agent Agent, write bool) uint64 {
	if size == 0 {
		return 0
	}
	first := addr >> b.lineShift
	last := (addr + size - 1) >> b.lineShift
	var cost uint64
	for l := first; l <= last; l++ {
		cost += b.Access(core, l<<b.lineShift, agent, write)
	}
	return cost
}

// TestAccessMatchesReference drives the Bus and the reference with the
// same random mix of Access and AccessRange calls, reads and writes, from
// three cores, over every set count the tree configures and a spread of
// associativities, and requires the same cost from every call and the same
// final Stats.
func TestAccessMatchesReference(t *testing.T) {
	const cores, calls = 3, 20000
	for _, sets := range []int{1, 16, 512} {
		for _, ways := range []int{1, 2, 3, 8, 16} {
			t.Run(fmt.Sprintf("sets=%d/ways=%d", sets, ways), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Sets, cfg.Ways = sets, ways
				got, want := New(cores, cfg), newRef(cores, cfg)
				rng := rand.New(rand.NewSource(int64(sets*100 + ways)))
				// Addresses come from a footprint a few times the cache,
				// so hits, clean and dirty evictions and invalid ways all
				// occur; a second hot region near the top of the address
				// space keeps high set bits and large tags exercised.
				footprint := 4 * uint64(sets*ways) * cfg.LineSize
				for i := 0; i < calls; i++ {
					core := rng.Intn(cores)
					agent := Agent(rng.Intn(int(numAgents)))
					write := rng.Intn(3) == 0
					addr := rng.Uint64() % footprint
					if rng.Intn(8) == 0 {
						addr = ^uint64(0) - addr
					}
					var g, w uint64
					if rng.Intn(4) == 0 {
						size := uint64(rng.Intn(int(4*cfg.LineSize) + 1))
						if addr > ^uint64(0)-size {
							addr -= size
						}
						g = got.AccessRange(core, addr, size, agent, write)
						w = want.AccessRange(core, addr, size, agent, write)
					} else {
						g = got.Access(core, addr, agent, write)
						w = want.Access(core, addr, agent, write)
					}
					if g != w {
						t.Fatalf("call %d (core %d, addr %#x, write %v): cost %d, reference %d", i, core, addr, write, g, w)
					}
				}
				gs, ws := got.Stats(), want.stats
				if !reflect.DeepEqual(gs, ws) {
					t.Fatalf("stats %+v, reference %+v", gs, ws)
				}
				if gs.Misses == 0 || gs.Misses == gs.Accesses || gs.TotalDRAM() == gs.Misses {
					t.Fatalf("mix too narrow: %+v (want hits, misses and writebacks)", gs)
				}
			})
		}
	}
}
