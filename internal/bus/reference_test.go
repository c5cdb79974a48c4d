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

// FuzzBus decodes its input into a geometry and a sequence of Access and
// AccessRange calls on two cores, and requires the Bus to charge every
// call what the reference charges and to end with the same Stats.
//
// The first byte picks 1–8 ways and 1, 2, 4 or 8 sets. Every call is then
// three bytes. The first packs the core (bit 0), the agent (bits 1–2), the
// write flag (bit 3), a range call (bit 4), an address mirrored to the top
// of the address space (bit 5) and the offset into the line in quarters
// (bits 6–7). The second picks a line from a footprint of the cache's
// lines plus two extra ways per set, so hits, conflicts, clean and dirty
// evictions and invalid ways all occur. The third is a range's size, up to
// three lines.
func FuzzBus(f *testing.F) {
	// Two ways, one set: a dirty line hit below the front, then evicted.
	f.Add([]byte{0x01, 0x08, 0, 0, 0x00, 1, 0, 0x00, 0, 0, 0x00, 2, 0, 0x00, 3, 0})
	// Eight ways, four sets: ranges from both cores, mirrored addresses.
	f.Add([]byte{0x17, 0x10, 3, 130, 0x19, 40, 64, 0x2a, 7, 0, 0x33, 9, 190, 0x0c, 3, 0, 0xc5, 60, 0})
	// Three ways, two sets: every agent, writes and reads interleaved.
	f.Add([]byte{0x0a, 0x08, 1, 0, 0x02, 3, 0, 0x0c, 5, 0, 0x06, 7, 0, 0x08, 9, 0, 0x00, 1, 0, 0x04, 11, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const cores = 2
		cfg := DefaultConfig()
		cfg.Ways = 1 + int(data[0]&7)
		cfg.Sets = 1 << (data[0] >> 3 & 3)
		got, want := New(cores, cfg), newRef(cores, cfg)
		footprint := uint64(cfg.Sets * (cfg.Ways + 2))
		for i := 1; i+3 <= len(data); i += 3 {
			op, line, size := data[i], uint64(data[i+1]), uint64(data[i+2])
			core := int(op & 1)
			agent := Agent(op >> 1 & 3)
			write := op&8 != 0
			addr := line%footprint*cfg.LineSize + uint64(op>>6)*cfg.LineSize/4
			if op&0x20 != 0 {
				addr = ^uint64(0) - addr
			}
			var g, w uint64
			if op&0x10 != 0 {
				size %= 3*cfg.LineSize + 1
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
				t.Fatalf("call %d (core %d, addr %#x, agent %v, write %v, range %v): cost %d, reference %d",
					i/3, core, addr, agent, write, op&0x10 != 0, g, w)
			}
		}
		if gs, ws := got.Stats(), want.stats; !reflect.DeepEqual(gs, ws) {
			t.Fatalf("stats %+v, reference %+v", gs, ws)
		}
	})
}
