package kernel

import (
	"testing"

	"repro/internal/ca"
	"repro/internal/vm"
)

func TestForkCopiesMemoryAndCapabilities(t *testing.T) {
	m := testMachine()
	parent := m.NewProcess(1)
	parent.Spawn("parent", []int{3}, func(th *Thread) {
		_, root := mustMmap(t, th, 1<<16)
		obj, _ := root.WithAddr(root.Base() + 4096).SetBoundsExact(64)
		if err := th.StoreCap(root, 0, obj); err != nil {
			t.Fatal(err)
		}
		child, err := parent.Fork(th)
		if err != nil {
			t.Fatal(err)
		}
		// Parent's subsequent writes must not be visible in the child.
		if err := th.Store(root, 0, 16); err != nil {
			t.Fatal(err)
		}
		child.Spawn("child", []int{2}, func(cth *Thread) {
			got, err := cth.LoadCap(root, 0)
			if err != nil {
				t.Error(err)
			}
			if !got.Tag() || got.Base() != obj.Base() {
				t.Errorf("child lost the capability: %v", got)
			}
		})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(m.Processes()) != 2 {
		t.Fatalf("processes = %d", len(m.Processes()))
	}
}

func TestForkIsolatesAddressSpaces(t *testing.T) {
	m := testMachine()
	parent := m.NewProcess(1)
	parent.Spawn("parent", []int{3}, func(th *Thread) {
		_, root := mustMmap(t, th, 1<<16)
		th.StoreCap(root, 0, root)
		child, err := parent.Fork(th)
		if err != nil {
			t.Fatal(err)
		}
		// Child overwrites; parent's view is untouched.
		child.Spawn("child", []int{2}, func(cth *Thread) {
			if err := cth.Store(root, 0, 16); err != nil {
				t.Error(err)
			}
			got, _ := cth.LoadCap(root, 0)
			if got.Tag() {
				t.Error("child's overwrite did not clear its tag")
			}
		})
		th.Idle(5_000_000) // let the child run
		got, err := th.LoadCap(root, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Tag() {
			t.Fatal("child's write leaked into the parent")
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestForkRevocationDoesNotDestroyAliases is the footnote-20 scenario: the
// child quarantines and revokes an object whose page it inherited from the
// parent. The child's sweep must revoke its own capability and leave the
// parent's (not quarantined there) alive.
func TestForkRevocationDoesNotDestroyAliases(t *testing.T) {
	m := testMachine()
	parent := m.NewProcess(1)
	parent.Spawn("parent", []int{3}, func(th *Thread) {
		_, root := mustMmap(t, th, vm.PageSize)
		obj, _ := root.WithAddr(root.Base() + 512).SetBoundsExact(64)
		if err := th.StoreCap(root, 0, obj); err != nil {
			t.Fatal(err)
		}
		child, err := parent.Fork(th)
		if err != nil {
			t.Fatal(err)
		}
		done := false
		child.Spawn("child-revoker", []int{2}, func(cth *Thread) {
			// The child quarantines the object in its own shadow and sweeps.
			if err := cth.PaintShadow(root, obj.Base(), obj.Len()); err != nil {
				t.Error(err)
			}
			pte, ok := child.AS.Lookup(root.Base())
			if !ok {
				t.Error("child page missing")
				return
			}
			if _, revoked := cth.SweepPage(root.Base()>>vm.PageShift, pte); revoked != 1 {
				t.Errorf("child revoked %d capabilities, want 1", revoked)
			}
			if got, _ := cth.LoadCap(root, 0); got.Tag() {
				t.Error("child's revoked capability still alive")
			}
			done = true
		})
		th.Idle(10_000_000)
		if !done {
			t.Fatal("child did not run")
		}
		got, err := th.LoadCap(root, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Tag() {
			t.Fatal("the child's revocation destroyed the parent's capability")
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestForkWaitsForRevocationEpoch(t *testing.T) {
	m := testMachine()
	p := m.NewProcess(1)
	var forkedAt, epochEndAt uint64
	p.Spawn("app", []int{3}, func(th *Thread) {
		// Wait until the revocation pass is in flight (odd counter), then
		// fork: the bulk-operation exclusion must hold it until the epoch
		// completes.
		p.WaitEpochAtLeast(th, 1)
		child, err := p.Fork(th)
		if err != nil {
			t.Error(err)
		}
		forkedAt = th.Sim.Now()
		_ = child
	})
	p.Spawn("revoker", []int{2}, func(th *Thread) {
		p.AdvanceEpoch(th) // odd: pass in flight
		th.Work(3_000_000)
		epochEndAt = th.Sim.Now()
		p.AdvanceEpoch(th) // even: complete
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if forkedAt < epochEndAt {
		t.Fatalf("fork completed at %d, before the epoch ended at %d", forkedAt, epochEndAt)
	}
}

func TestForkCopiesHoardsAndShadow(t *testing.T) {
	m := testMachine()
	p := m.NewProcess(1)
	h := p.NewHoard("sessions")
	p.Spawn("app", []int{3}, func(th *Thread) {
		_, root := mustMmap(t, th, 1<<16)
		h.Put(0, root)
		if err := th.PaintShadow(root, root.Base(), 64); err != nil {
			t.Fatal(err)
		}
		child, err := p.Fork(th)
		if err != nil {
			t.Fatal(err)
		}
		if len(child.hoards) != 1 || !child.hoards[0].Get(0).Tag() {
			t.Error("hoard not copied")
		}
		if !child.Shadow.Test(root.Base()) {
			t.Error("shadow bitmap not copied")
		}
		// The copies are independent.
		child.Shadow.Unpaint(ca.NewRoot(root.Base(), 64, ca.PermPaint), root.Base(), 64)
		if !p.Shadow.Test(root.Base()) {
			t.Error("child unpaint affected parent shadow")
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestForkChildStartsAtSteadyGenerations(t *testing.T) {
	m := testMachine()
	p := m.NewProcess(1)
	p.Spawn("app", []int{3}, func(th *Thread) {
		_, root := mustMmap(t, th, 1<<16)
		th.StoreCap(root, 0, root)
		// Skew the parent's generations as a mid-life process would have.
		p.BumpGenerations(th)
		p.BumpGenerations(th)
		child, err := p.Fork(th)
		if err != nil {
			t.Fatal(err)
		}
		child.Spawn("child", []int{2}, func(cth *Thread) {
			// A capability load in the child must not trap: its PTEs are
			// stamped with the inherited current generation.
			got, err := cth.LoadCap(root, 0)
			if err != nil {
				t.Error(err)
			}
			if !got.Tag() {
				t.Error("capability lost across fork")
			}
			pte, ok := child.AS.Lookup(root.Base())
			if !ok {
				t.Error("child page missing")
			} else if child.AS.GenMismatch(cth.Sim.CoreID(), pte) {
				t.Error("child PTE generation stale at birth")
			}
		})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiProcessIsolationAndIndependentEpochs(t *testing.T) {
	// Two processes on one machine, each with its own heap-like region and
	// epoch counter: advancing one's epoch or revoking in one must not
	// disturb the other.
	m := testMachine()
	p1 := m.NewProcess(1)
	p2 := m.NewProcess(2)
	p1.Spawn("p1", []int{3}, func(th *Thread) {
		_, root := mustMmap(t, th, 1<<16)
		stale, _ := root.WithAddr(root.Base()).SetBoundsExact(64)
		th.StoreCap(root, 0, stale)
		th.PaintShadow(root, stale.Base(), 64)
		p1.StopTheWorld(th)
		p1.ScanRoots(th)
		pte, _ := p1.AS.Lookup(root.Base())
		th.SweepPage(root.Base()>>vm.PageShift, pte)
		p1.ResumeTheWorld(th)
		p1.AdvanceEpoch(th)
		p1.AdvanceEpoch(th)
		got, _ := th.LoadCap(root, 0)
		if got.Tag() {
			t.Error("p1 sweep failed")
		}
	})
	p2.Spawn("p2", []int{2}, func(th *Thread) {
		_, root := mustMmap(t, th, 1<<16)
		keep, _ := root.WithAddr(root.Base()).SetBoundsExact(64)
		th.StoreCap(root, 0, keep)
		th.Work(20_000_000)
		got, err := th.LoadCap(root, 0)
		if err != nil {
			t.Error(err)
		}
		if !got.Tag() {
			t.Error("p2's capability revoked by p1's sweep")
		}
		if p2.Epoch() != 0 {
			t.Errorf("p2 epoch = %d; p1's advances leaked", p2.Epoch())
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if p1.Epoch() != 2 {
		t.Fatalf("p1 epoch = %d", p1.Epoch())
	}
}
