package kernel

import (
	"errors"
	"testing"

	"repro/internal/bus"
	"repro/internal/ca"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
)

func testMachine() *Machine {
	cfg := DefaultMachineConfig()
	cfg.Sim.Cores = 4
	return NewMachine(cfg)
}

// runProc runs fn as a single app thread of a fresh process and returns
// the process.
func runProc(t *testing.T, fn func(*Thread)) *Process {
	t.Helper()
	m := testMachine()
	p := m.NewProcess(1)
	p.Spawn("app", []int{3}, fn)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return p
}

func mustMmap(t *testing.T, th *Thread, size uint64) (*vm.Reservation, ca.Capability) {
	t.Helper()
	r, err := th.Mmap(size, ca.PermsData|ca.PermPaint)
	if err != nil {
		t.Fatal(err)
	}
	return r, r.Root
}

func TestDataRoundTripAndCosts(t *testing.T) {
	var before, after uint64
	p := runProc(t, func(th *Thread) {
		_, root := mustMmap(t, th, 1<<16)
		before = th.Sim.CPU()
		if err := th.Store(root, 0, 64); err != nil {
			t.Error(err)
		}
		if err := th.Load(root, 0, 64); err != nil {
			t.Error(err)
		}
		after = th.Sim.CPU()
	})
	if after <= before {
		t.Fatal("memory ops charged no cycles")
	}
	s := p.Stats()
	if s.Loads != 1 || s.Stores != 1 {
		t.Fatalf("loads=%d stores=%d", s.Loads, s.Stores)
	}
}

func TestCapStoreLoadRoundTrip(t *testing.T) {
	runProc(t, func(th *Thread) {
		_, root := mustMmap(t, th, 1<<16)
		obj, err := root.WithAddr(root.Base() + 256).SetBoundsExact(64)
		if err != nil {
			t.Fatal(err)
		}
		if err := th.StoreCap(root, 16, obj); err != nil {
			t.Fatal(err)
		}
		got, err := th.LoadCap(root, 16)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Tag() || got.Base() != obj.Base() {
			t.Fatalf("loaded %v, want %v", got, obj)
		}
	})
}

func TestCapStoreSetsDirtyBits(t *testing.T) {
	runProc(t, func(th *Thread) {
		_, root := mustMmap(t, th, 1<<16)
		if err := th.StoreCap(root, 0, root); err != nil {
			t.Fatal(err)
		}
		pte, ok := th.P.AS.Lookup(root.Base())
		if !ok {
			t.Fatal("page not mapped")
		}
		if pte.Bits&vm.PTECapDirty == 0 || pte.Bits&vm.PTEEverCapDirty == 0 {
			t.Fatal("capability store did not set dirty bits")
		}
	})
}

func TestDataStoreDoesNotSetCapDirty(t *testing.T) {
	runProc(t, func(th *Thread) {
		_, root := mustMmap(t, th, 1<<16)
		if err := th.Store(root, 0, 128); err != nil {
			t.Fatal(err)
		}
		pte, _ := th.P.AS.Lookup(root.Base())
		if pte.Bits&vm.PTECapDirty != 0 {
			t.Fatal("data store set capability-dirty")
		}
	})
}

func TestDataStoreOverwritesCapability(t *testing.T) {
	runProc(t, func(th *Thread) {
		_, root := mustMmap(t, th, 1<<16)
		th.StoreCap(root, 32, root)
		th.Store(root, 32, 8)
		got, err := th.LoadCap(root, 32)
		if err != nil {
			t.Fatal(err)
		}
		if got.Tag() {
			t.Fatal("capability survived partial data overwrite")
		}
	})
}

func TestLoadOutsideBoundsFails(t *testing.T) {
	runProc(t, func(th *Thread) {
		_, root := mustMmap(t, th, 1<<16)
		small, _ := root.WithAddr(root.Base()).SetBoundsExact(32)
		if err := th.Load(small, 16, 32); err == nil {
			t.Fatal("out-of-bounds load allowed")
		}
	})
}

func TestMisalignedCapAccessFails(t *testing.T) {
	runProc(t, func(th *Thread) {
		_, root := mustMmap(t, th, 1<<16)
		if _, err := th.LoadCap(root, 8); err == nil {
			t.Fatal("misaligned cap load allowed")
		}
		if err := th.StoreCap(root, 8, root); err == nil {
			t.Fatal("misaligned cap store allowed")
		}
	})
}

func TestGuardPageFaults(t *testing.T) {
	runProc(t, func(th *Thread) {
		r, root := mustMmap(t, th, 4*vm.PageSize)
		if _, _, err := th.Munmap(r.Base+vm.PageSize, vm.PageSize); err != nil {
			t.Fatal(err)
		}
		err := th.Load(root, vm.PageSize, 8)
		var f *vm.Fault
		if !errors.As(err, &f) || f.Kind != vm.FaultUnmapped {
			t.Fatalf("err = %v, want unmapped fault", err)
		}
	})
}

func TestEpochProtocol(t *testing.T) {
	m := testMachine()
	p := m.NewProcess(1)
	var observed uint64
	p.Spawn("waiter", []int{3}, func(th *Thread) {
		e := p.Epoch()
		p.WaitEpochAtLeast(th, EpochClearTarget(e))
		observed = p.Epoch()
	})
	p.Spawn("revoker", []int{2}, func(th *Thread) {
		th.Work(1000)
		p.AdvanceEpoch(th) // begin (odd)
		th.Work(5000)
		p.AdvanceEpoch(th) // end (even)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if observed != 2 {
		t.Fatalf("waiter observed epoch %d, want 2", observed)
	}
}

func TestEpochClearTarget(t *testing.T) {
	if got := EpochClearTarget(4); got != 6 {
		t.Fatalf("even target = %d, want 6", got)
	}
	if got := EpochClearTarget(5); got != 8 {
		t.Fatalf("odd target = %d, want 8", got)
	}
}

func TestStopTheWorldQuiescesRunningThread(t *testing.T) {
	m := testMachine()
	p := m.NewProcess(1)
	var appProgressDuringSTW bool
	var stwStart, stwEnd uint64
	appOps := 0
	stopped := false
	p.Spawn("app", []int{3}, func(th *Thread) {
		for i := 0; i < 100_000; i++ {
			th.Work(50)
			appOps++
			if stopped && th.Sim.Now() > stwStart && th.Sim.Now() < stwEnd {
				appProgressDuringSTW = true
			}
		}
	})
	p.Spawn("revoker", []int{2}, func(th *Thread) {
		th.Work(500_000)
		stwStart = th.Sim.Now()
		p.StopTheWorld(th)
		stopped = true
		th.Work(1_000_000) // pretend to scan
		p.ResumeTheWorld(th)
		stwEnd = th.Sim.Now()
		stopped = false
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if appProgressDuringSTW {
		t.Fatal("app thread made progress during stop-the-world")
	}
	if p.Stats().StopTheWorlds != 1 {
		t.Fatalf("STW count = %d", p.Stats().StopTheWorlds)
	}
}

func TestStopTheWorldCountsSleepersAsStopped(t *testing.T) {
	m := testMachine()
	p := m.NewProcess(1)
	var stwDone uint64
	p.Spawn("sleeper", []int{3}, func(th *Thread) {
		th.Idle(50_000_000) // long think time
	})
	p.Spawn("revoker", []int{2}, func(th *Thread) {
		th.Work(1000)
		p.StopTheWorld(th)
		p.ResumeTheWorld(th)
		stwDone = th.Sim.Now()
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if stwDone == 0 || stwDone > 10_000_000 {
		t.Fatalf("STW over a sleeping thread completed at %d; should not wait for it", stwDone)
	}
}

func TestScanRootsRevokesRegistersAndHoards(t *testing.T) {
	m := testMachine()
	p := m.NewProcess(1)
	h := p.NewHoard("kqueue")
	var appTh *Thread
	appTh = p.Spawn("app", []int{3}, func(th *Thread) {
		_, root := mustMmap(t, th, 1<<16)
		stale, _ := root.WithAddr(root.Base()).SetBoundsExact(64)
		live, _ := root.WithAddr(root.Base() + 4096).SetBoundsExact(64)
		th.SetReg(0, stale)
		th.SetReg(1, live)
		h.Put(0, stale)
		h.Put(1, live)
		// Quarantine the stale object.
		if err := th.PaintShadow(root, stale.Base(), 64); err != nil {
			t.Error(err)
		}
		th.Idle(1 << 30)
	})
	p.Spawn("revoker", []int{2}, func(th *Thread) {
		th.Work(100_000) // let the app set up
		p.StopTheWorld(th)
		scanned, revoked := p.ScanRoots(th)
		p.ResumeTheWorld(th)
		if scanned < 4 || revoked != 2 {
			t.Errorf("scanned=%d revoked=%d, want ≥4 and 2", scanned, revoked)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if appTh.Reg(0).Tag() {
		t.Fatal("stale register capability survived root scan")
	}
	if !appTh.Reg(1).Tag() {
		t.Fatal("live register capability was revoked")
	}
	if h.Get(0).Tag() || !h.Get(1).Tag() {
		t.Fatal("hoard scan wrong")
	}
}

func TestSweepPageRevokesPaintedCaps(t *testing.T) {
	runProc(t, func(th *Thread) {
		_, root := mustMmap(t, th, 1<<16)
		stale, _ := root.WithAddr(root.Base() + 1024).SetBoundsExact(64)
		live, _ := root.WithAddr(root.Base() + 2048).SetBoundsExact(64)
		th.StoreCap(root, 0, stale)
		th.StoreCap(root, 16, live)
		th.PaintShadow(root, stale.Base(), 64)
		pte, _ := th.P.AS.Lookup(root.Base())
		visited, revoked := th.SweepPage(root.Base()>>vm.PageShift, pte)
		if visited != 2 || revoked != 1 {
			t.Fatalf("visited=%d revoked=%d", visited, revoked)
		}
		got, _ := th.LoadCap(root, 0)
		if got.Tag() {
			t.Fatal("painted capability survived sweep")
		}
		got, _ = th.LoadCap(root, 16)
		if !got.Tag() {
			t.Fatal("live capability revoked by sweep")
		}
		if pte.Bits&vm.PTECapDirty != 0 {
			t.Fatal("sweep left capability-dirty set")
		}
	})
}

// fakeBarrier sweeps the page and updates its generation, standing in for
// the Reloaded revoker.
type fakeBarrier struct{ faults int }

func (f *fakeBarrier) HandleLoadGenFault(th *Thread, va uint64, pte *vm.PTE) {
	f.faults++
	th.SweepPage(va>>vm.PageShift, pte)
	pte.Gen = th.P.AS.CoreGen(th.Sim.CoreID())
}

func TestLoadBarrierFaultPath(t *testing.T) {
	m := testMachine()
	p := m.NewProcess(1)
	fb := &fakeBarrier{}
	p.SetLoadBarrier(fb)
	p.Spawn("app", []int{3}, func(th *Thread) {
		_, root := mustMmap(t, th, 1<<16)
		stale, _ := root.WithAddr(root.Base() + 1024).SetBoundsExact(64)
		th.StoreCap(root, 0, stale)
		th.PaintShadow(root, stale.Base(), 64)

		// Epoch start: bump generations (we play the revoker's STW here).
		p.BumpGenerations(th)

		// The next tagged load must fault, sweep, and return the revoked
		// (untagged) value.
		got, err := th.LoadCap(root, 0)
		if err != nil {
			t.Error(err)
		}
		if got.Tag() {
			t.Error("stale capability loaded through armed barrier")
		}
		if fb.faults != 1 {
			t.Errorf("faults = %d, want 1", fb.faults)
		}
		// A second load from the same page must not fault again.
		if _, err := th.LoadCap(root, 0); err != nil {
			t.Error(err)
		}
		if fb.faults != 1 {
			t.Errorf("faults after healed load = %d, want 1", fb.faults)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if p.Stats().GenFaults != 1 {
		t.Fatalf("GenFaults = %d, want 1", p.Stats().GenFaults)
	}
	if p.Stats().GenFaultCycles == 0 {
		t.Fatal("no fault cycles recorded")
	}
}

// TestLoadBarrierFaultCases drives both ways a tagged load can fault on the
// load barrier, an always-trap page (§7.6) and a generation mismatch
// (§4.3), each with the fault taken and with it suppressed by the
// fault-injection hook. A taken fault runs the handler once, which revokes
// the painted capability before the reload, and records one fault instant
// whose Arg2 names the cause; a suppressed one returns the stale value
// unchecked and records nothing.
func TestLoadBarrierFaultCases(t *testing.T) {
	for _, tc := range []struct {
		name       string
		alwaysTrap bool
		suppress   bool
	}{
		{"always-trap", true, false},
		{"always-trap-suppressed", true, true},
		{"generation", false, false},
		{"generation-suppressed", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := testMachine()
			m.Trace = trace.New(64)
			p := m.NewProcess(1)
			fb := &fakeBarrier{}
			p.SetLoadBarrier(fb)
			suppressed := 0
			if tc.suppress {
				p.Inject.SuppressGenFault = func(uint64, ca.Capability) bool {
					suppressed++
					return true
				}
			}
			var va uint64
			var got ca.Capability
			p.Spawn("app", []int{3}, func(th *Thread) {
				_, root := mustMmap(t, th, 1<<16)
				va = root.Base()
				stale, _ := root.WithAddr(root.Base() + 1024).SetBoundsExact(64)
				th.StoreCap(root, 0, stale)
				th.PaintShadow(root, stale.Base(), 64)
				if tc.alwaysTrap {
					pte, _ := th.P.AS.Lookup(va)
					pte.Bits |= vm.PTECapLoadTrap
				} else {
					p.BumpGenerations(th)
				}
				var err error
				if got, err = th.LoadCap(root, 0); err != nil {
					t.Error(err)
				}
			})
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			var faults []trace.Event
			for _, ev := range m.Trace.Events() {
				if ev.Kind == trace.KindFault {
					faults = append(faults, ev)
				}
			}
			if tc.suppress {
				if !got.Tag() || suppressed != 1 || fb.faults != 0 || p.Stats().GenFaults != 0 || len(faults) != 0 {
					t.Fatalf("suppressed fault: tag=%v hook calls=%d handler calls=%d GenFaults=%d fault instants=%d, want true 1 0 0 0",
						got.Tag(), suppressed, fb.faults, p.Stats().GenFaults, len(faults))
				}
				return
			}
			if got.Tag() || fb.faults != 1 || p.Stats().GenFaults != 1 || len(faults) != 1 {
				t.Fatalf("taken fault: tag=%v handler calls=%d GenFaults=%d fault instants=%d, want false 1 1 1",
					got.Tag(), fb.faults, p.Stats().GenFaults, len(faults))
			}
			wantArg2 := uint64(1)
			if tc.alwaysTrap {
				wantArg2 = 0
			}
			if ev := faults[0]; ev.Arg != va || ev.Arg2 != wantArg2 {
				t.Fatalf("fault instant Arg=0x%x Arg2=%d, want 0x%x %d", ev.Arg, ev.Arg2, va, wantArg2)
			}
		})
	}
}

func TestTLBRefillPathAfterRemoteSweep(t *testing.T) {
	m := testMachine()
	p := m.NewProcess(1)
	fb := &fakeBarrier{}
	p.SetLoadBarrier(fb)
	p.Spawn("app", []int{3}, func(th *Thread) {
		_, root := mustMmap(t, th, 1<<16)
		live, _ := root.WithAddr(root.Base() + 2048).SetBoundsExact(64)
		th.StoreCap(root, 0, live)
		// Load once so the TLB caches the current generation.
		if _, err := th.LoadCap(root, 0); err != nil {
			t.Error(err)
		}
		// Epoch: bump generations. BumpGenerations shoots down TLBs, so to
		// model the stale-TLB case we refill the TLB with the old PTE
		// before the (simulated remote) revoker updates it.
		pte, _ := th.P.AS.Lookup(root.Base())
		p.BumpGenerations(th)
		th.P.AS.TLBFill(th.Sim.CoreID(), root.Base(), pte)
		// "Remote revoker" sweeps the page and updates the PTE.
		th.SweepPage(root.Base()>>vm.PageShift, pte)
		pte.Gen = th.P.AS.CoreGen(0)
		// Now our TLB is stale but the PTE is current: the load must take
		// the refill path, not the fault path.
		if _, err := th.LoadCap(root, 0); err != nil {
			t.Error(err)
		}
		if fb.faults != 0 {
			t.Errorf("faults = %d, want 0 (refill path)", fb.faults)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if p.Stats().TLBRefills != 1 {
		t.Fatalf("TLBRefills = %d, want 1", p.Stats().TLBRefills)
	}
}

func TestSyscallMarksThread(t *testing.T) {
	m := testMachine()
	p := m.NewProcess(7)
	drainCharged := false
	p.Spawn("app", []int{3}, func(th *Thread) {
		for i := 0; i < 50; i++ {
			th.Syscall(200_000)
			th.Work(1000)
		}
	})
	p.Spawn("revoker", []int{2}, func(th *Thread) {
		th.Work(500_000)
		before := th.Sim.CPU()
		p.StopTheWorld(th)
		p.ResumeTheWorld(th)
		// Either drain cost or plain stop cost was charged; at minimum the
		// stop cost.
		drainCharged = th.Sim.CPU()-before >= m.Costs.StopThread
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !drainCharged {
		t.Fatal("STW charged less than the per-thread stop cost")
	}
}

func TestAgentAttribution(t *testing.T) {
	m := testMachine()
	p := m.NewProcess(1)
	p.Spawn("app", []int{3}, func(th *Thread) {
		th.Agent = bus.AgentRevoker
		_, root := mustMmap(t, th, 1<<16)
		th.Load(root, 0, 64)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	s := m.Bus.Stats()
	if s.DRAMByAgent[bus.AgentRevoker] == 0 {
		t.Fatal("revoker traffic not attributed")
	}
	if s.DRAMByAgent[bus.AgentApp] != 0 {
		t.Fatal("app traffic attributed without app accesses")
	}
}

func TestColorModeBlocksMismatchedAccess(t *testing.T) {
	m := testMachine()
	p := m.NewProcess(1)
	p.SetColorMode(true)
	p.Spawn("app", []int{3}, func(th *Thread) {
		r, err := th.Mmap(1<<16, ca.PermsData|ca.PermPaint|ca.PermRecolor)
		if err != nil {
			t.Fatal(err)
		}
		root := r.Root
		// Color granule 0 with color 3. An unprivileged capability (no
		// PermRecolor) of the wrong color must trap; the right color must
		// succeed; and the allocator's elevated (PermRecolor) authority
		// bypasses the check entirely.
		pte, _, _ := th.P.AS.EnsureMapped(root.Base())
		m.Phys.SetColor(pte.Frame, 0, 1, 3)
		plain := root.ClearPerms(ca.PermRecolor)
		if err := th.Load(plain, 0, 8); err == nil {
			t.Error("mis-colored load allowed")
		}
		c3, err := root.WithColor(3)
		if err != nil {
			t.Fatal(err)
		}
		if err := th.Load(c3.ClearPerms(ca.PermRecolor), 0, 8); err != nil {
			t.Errorf("matching-color load failed: %v", err)
		}
		if err := th.Load(root, 0, 8); err != nil {
			t.Errorf("elevated-authority load failed: %v", err)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if p.Stats().ColorTraps != 1 {
		t.Fatalf("ColorTraps = %d, want 1", p.Stats().ColorTraps)
	}
}

func TestWorkAndIdleAccounting(t *testing.T) {
	m := testMachine()
	p := m.NewProcess(1)
	var th0 *Thread
	th0 = p.Spawn("app", []int{3}, func(th *Thread) {
		th.Work(10_000)
		th.Idle(90_000)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if th0.Sim.CPU() != 10_000 {
		t.Fatalf("cpu = %d, want 10000", th0.Sim.CPU())
	}
	if m.Eng.WallClock() < 100_000 {
		t.Fatalf("wall = %d, want ≥ 100000", m.Eng.WallClock())
	}
	_ = sim.Ready // keep sim import for clarity of states used above
}
