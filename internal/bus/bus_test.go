package bus

import (
	"testing"
	"testing/quick"
)

func TestHitAfterMiss(t *testing.T) {
	b := New(1, DefaultConfig())
	c1 := b.Access(0, 0x1000, AgentApp, false)
	if c1 != DefaultConfig().MissCycles {
		t.Fatalf("first access cost %d, want miss cost %d", c1, DefaultConfig().MissCycles)
	}
	c2 := b.Access(0, 0x1008, AgentApp, false) // same line
	if c2 != DefaultConfig().HitCycles {
		t.Fatalf("second access cost %d, want hit cost %d", c2, DefaultConfig().HitCycles)
	}
	s := b.Stats()
	if s.Misses != 1 || s.Accesses != 2 {
		t.Fatalf("misses=%d accesses=%d", s.Misses, s.Accesses)
	}
}

func TestPerCoreCachesIndependent(t *testing.T) {
	b := New(2, DefaultConfig())
	b.Access(0, 0x1000, AgentApp, false)
	c := b.Access(1, 0x1000, AgentRevoker, false)
	if c != DefaultConfig().MissCycles {
		t.Fatal("core 1 hit in core 0's cache")
	}
	s := b.Stats()
	if s.DRAMByCore[0] != 1 || s.DRAMByCore[1] != 1 {
		t.Fatalf("per-core DRAM = %v", s.DRAMByCore)
	}
	if s.DRAMByAgent[AgentApp] != 1 || s.DRAMByAgent[AgentRevoker] != 1 {
		t.Fatalf("per-agent DRAM = %v", s.DRAMByAgent)
	}
}

func TestDirtyEvictionCostsWriteback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sets = 1
	cfg.Ways = 1
	b := New(1, cfg)
	b.Access(0, 0, AgentApp, true) // dirty line
	cost := b.Access(0, cfg.LineSize*uint64(cfg.Sets), AgentApp, false)
	if cost != cfg.MissCycles+cfg.WritebackCycles {
		t.Fatalf("eviction cost %d, want %d", cost, cfg.MissCycles+cfg.WritebackCycles)
	}
	if got := b.Stats().TotalDRAM(); got != 3 { // miss + miss + writeback
		t.Fatalf("DRAM transactions = %d, want 3", got)
	}
}

func TestLRUReplacement(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sets = 1
	cfg.Ways = 2
	b := New(1, cfg)
	a0 := uint64(0)
	a1 := cfg.LineSize
	a2 := 2 * cfg.LineSize
	b.Access(0, a0, AgentApp, false)
	b.Access(0, a1, AgentApp, false)
	b.Access(0, a0, AgentApp, false) // a0 now MRU
	b.Access(0, a2, AgentApp, false) // evicts a1
	if c := b.Access(0, a0, AgentApp, false); c != cfg.HitCycles {
		t.Fatal("MRU line was evicted")
	}
	if c := b.Access(0, a1, AgentApp, false); c != cfg.MissCycles {
		t.Fatal("LRU line was retained")
	}
}

func TestAccessRangeChargesPerLine(t *testing.T) {
	cfg := DefaultConfig()
	b := New(1, cfg)
	cost := b.AccessRange(0, 0, 4*cfg.LineSize, AgentRevoker, false)
	if cost != 4*cfg.MissCycles {
		t.Fatalf("range cost %d, want %d", cost, 4*cfg.MissCycles)
	}
	// Unaligned range straddling an extra line.
	cost = b.AccessRange(0, cfg.LineSize*10+8, cfg.LineSize, AgentRevoker, false)
	if cost != 2*cfg.MissCycles {
		t.Fatalf("straddling cost %d, want %d", cost, 2*cfg.MissCycles)
	}
	if b.AccessRange(0, 0, 0, AgentApp, false) != 0 {
		t.Fatal("zero-size range charged")
	}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	for _, mod := range []func(*Config){
		func(c *Config) { c.LineSize = 48 },
		func(c *Config) { c.LineSize = 2 },
		func(c *Config) { c.Sets = 0 },
		func(c *Config) { c.Sets = 24 },
		func(c *Config) { c.Ways = 0 },
	} {
		cfg := DefaultConfig()
		mod(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted %+v", cfg)
				}
			}()
			New(1, cfg)
		}()
	}
}

// Property: total DRAM transactions never exceed accesses*2 (each access
// causes at most a fill and one writeback), and hits cost less than misses.
func TestQuickDRAMBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sets = 16
	f := func(addrs []uint16) bool {
		b := New(1, cfg)
		for i, a := range addrs {
			b.Access(0, uint64(a), AgentApp, i%2 == 0)
		}
		s := b.Stats()
		return s.TotalDRAM() <= 2*s.Accesses && s.Misses <= s.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAccessHit(b *testing.B) {
	bs := New(1, DefaultConfig())
	bs.Access(0, 0, AgentApp, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.Access(0, 0, AgentApp, false)
	}
}

func BenchmarkAccessStream(b *testing.B) {
	bs := New(1, DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.Access(0, uint64(i)*64, AgentRevoker, false)
	}
}
