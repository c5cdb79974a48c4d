// Package bus models the memory hierarchy's cost: per-core set-associative
// caches in front of a shared DRAM controller.
//
// The evaluation quantities of the paper that depend on the memory system —
// "bus accesses" (Figures 4 and 6) and the cycle cost of sweeps versus
// application work — are functions of which agent misses in cache where.
// A single-level, write-back, write-allocate cache per core reproduces the
// qualitative behaviour the paper discusses in §5.6: a sequential sweep
// streams through memory and evicts the application's working set, while a
// load-barrier fault warms the application core's cache with data the
// application is about to use.
package bus

import (
	"fmt"
	"math/bits"
)

// Agent attributes DRAM traffic to its architectural cause.
type Agent int

// Traffic attribution classes.
const (
	// AgentApp is ordinary application loads and stores.
	AgentApp Agent = iota
	// AgentAlloc is allocator and quarantine metadata traffic (malloc/free
	// bookkeeping, bitmap painting).
	AgentAlloc
	// AgentRevoker is revocation sweep traffic: page scans and revocation
	// bitmap probes.
	AgentRevoker
	// AgentKernel is kernel traffic (hoards, page tables, context switch).
	AgentKernel
	numAgents
)

// String names the agent.
func (a Agent) String() string {
	switch a {
	case AgentApp:
		return "app"
	case AgentAlloc:
		return "alloc"
	case AgentRevoker:
		return "revoker"
	case AgentKernel:
		return "kernel"
	}
	return fmt.Sprintf("agent(%d)", int(a))
}

// Config sets the memory hierarchy geometry and timing.
type Config struct {
	// LineSize is the cache line size in bytes. Must be a power of two.
	LineSize uint64
	// Sets and Ways give the per-core cache geometry.
	Sets, Ways int
	// HitCycles is the latency charged for a cache hit.
	HitCycles uint64
	// MissCycles is the latency charged for a miss (DRAM access).
	MissCycles uint64
	// WritebackCycles is the extra latency charged when a miss evicts a
	// dirty line (which also costs a DRAM transaction).
	WritebackCycles uint64
}

// DefaultConfig models a modest per-core cache: 64 B lines, 512 sets × 8
// ways = 256 KiB, with DRAM at 30× hit latency. The absolute values are not
// Morello's, but the hit/miss ratio structure — which drives every traffic
// figure — is scale-free.
func DefaultConfig() Config {
	return Config{
		LineSize:        64,
		Sets:            512,
		Ways:            8,
		HitCycles:       4,
		MissCycles:      120,
		WritebackCycles: 30,
	}
}

// Stats accumulates DRAM transactions by core and by agent.
type Stats struct {
	// DRAMByAgent counts DRAM transactions (misses + writebacks) caused by
	// each agent.
	DRAMByAgent [numAgents]uint64
	// DRAMByCore counts DRAM transactions by requesting core.
	DRAMByCore []uint64
	// Accesses counts all cache accesses (hit or miss).
	Accesses uint64
	// Misses counts cache misses.
	Misses uint64
}

// TotalDRAM returns total DRAM transactions across all agents.
func (s Stats) TotalDRAM() uint64 {
	var t uint64
	for _, v := range s.DRAMByAgent {
		t += v
	}
	return t
}

// Bus is the memory hierarchy model: one cache per core over shared DRAM.
//
// Every core's cache lives in one flat slice, core-major then set-major,
// each set padded to a power-of-two stride of ways so an entry's index is
// (core<<setShift | set) << wayShift. A set's ways are kept in recency
// order: the most recently used line first, invalid entries (0) at the
// tail. A valid entry is (lineAddr+1)<<1 with the dirty flag in bit 0, so
// it is never 0. A hit moves its entry to the front; a miss shifts the set
// down one way and evicts the tail, which is an invalid way while one
// remains and the least recently used line otherwise.
type Bus struct {
	cfg       Config
	lines     []uint64
	setMask   uint64
	setShift  uint
	wayShift  uint
	lineShift uint
	stats     Stats
}

// New creates a Bus for ncores cores. It panics unless LineSize is a
// power of two of at least 4 (smaller lines would let the entry encoding
// overflow for addresses near the top of the 64-bit space), Sets is a
// power of two and Ways is positive.
func New(ncores int, cfg Config) *Bus {
	if cfg.LineSize < 4 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("bus: LineSize %d not a power of two of at least 4", cfg.LineSize))
	}
	if cfg.Sets < 1 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic(fmt.Sprintf("bus: Sets %d not a power of two", cfg.Sets))
	}
	if cfg.Ways < 1 {
		panic(fmt.Sprintf("bus: Ways %d not positive", cfg.Ways))
	}
	b := &Bus{
		cfg:       cfg,
		setMask:   uint64(cfg.Sets - 1),
		setShift:  uint(bits.TrailingZeros64(uint64(cfg.Sets))),
		wayShift:  uint(bits.Len64(uint64(cfg.Ways - 1))),
		lineShift: uint(bits.TrailingZeros64(cfg.LineSize)),
	}
	b.lines = make([]uint64, ncores<<(b.setShift+b.wayShift))
	b.stats.DRAMByCore = make([]uint64, ncores)
	return b
}

// Stats returns a snapshot of the accumulated statistics.
func (b *Bus) Stats() Stats {
	s := b.stats
	s.DRAMByCore = append([]uint64(nil), b.stats.DRAMByCore...)
	return s
}

// Access models a memory access of any width within one cache line at addr
// by agent on core. It returns the cycle cost. Write accesses mark the line
// dirty; evicting a dirty line costs an extra DRAM transaction.
func (b *Bus) Access(core int, addr uint64, agent Agent, write bool) uint64 {
	return b.access(core, addr>>b.lineShift, agent, write)
}

// AccessRange models a sequential access covering [addr, addr+size) and
// returns the total cycle cost. Each distinct line is charged once, in
// ascending order, exactly as a loop of Access calls would charge it.
func (b *Bus) AccessRange(core int, addr, size uint64, agent Agent, write bool) uint64 {
	if size == 0 {
		return 0
	}
	last := (addr + size - 1) >> b.lineShift
	var cost uint64
	for l := addr >> b.lineShift; l <= last; l++ {
		cost += b.access(core, l, agent, write)
	}
	return cost
}

// access looks lineAddr up in core's cache, keeping its set in recency
// order, and returns the cycle cost. Below the front way it moves the set
// down one way as it scans, so the scan that finds the line (or the first
// invalid way, or none) has already made room for it at the front.
func (b *Bus) access(core int, lineAddr uint64, agent Agent, write bool) uint64 {
	b.stats.Accesses++
	var dirty uint64
	if write {
		dirty = 1
	}
	key := (lineAddr + 1) << 1
	i := (uint64(core)<<b.setShift | lineAddr&b.setMask) << b.wayShift
	set := b.lines[i : i+uint64(b.cfg.Ways)]
	// A repeat access to the set's most recent line, the common case,
	// needs no reordering.
	prev := set[0]
	if prev&^1 == key {
		set[0] = prev | dirty
		return b.cfg.HitCycles
	}
	for w := 1; w < len(set); w++ {
		e := set[w]
		set[w] = prev
		if e&^1 == key {
			set[0] = e | dirty
			return b.cfg.HitCycles
		}
		if e == 0 {
			prev = 0
			break
		}
		prev = e
	}

	// prev is the evicted entry: the tail line, or 0 for an invalid way.
	b.stats.Misses++
	b.stats.DRAMByAgent[agent]++
	b.stats.DRAMByCore[core]++
	cost := b.cfg.MissCycles
	if prev&1 != 0 {
		b.stats.DRAMByAgent[agent]++
		b.stats.DRAMByCore[core]++
		cost += b.cfg.WritebackCycles
	}
	set[0] = key | dirty
	return cost
}
