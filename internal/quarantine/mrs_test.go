package quarantine

import (
	"errors"
	"testing"

	"repro/internal/alloc"
	"repro/internal/ca"
	"repro/internal/kernel"
	"repro/internal/revoke"
)

type rig struct {
	m *kernel.Machine
	p *kernel.Process
	h *alloc.Heap
	s *revoke.Service
	q *Shim
}

func newRig(strategy revoke.Strategy, pol Policy) *rig {
	m := kernel.NewMachine(kernel.DefaultMachineConfig())
	p := m.NewProcess(7)
	h := alloc.NewHeap(p)
	s := revoke.NewService(p, revoke.Config{Strategy: strategy, RevokerCores: []int{2}})
	return &rig{m: m, p: p, h: h, s: s, q: New(h, s, pol)}
}

func (r *rig) runApp(t *testing.T, fn func(th *kernel.Thread)) {
	t.Helper()
	r.s.Start()
	r.p.Spawn("app", []int{3}, func(th *kernel.Thread) {
		fn(th)
		r.s.Shutdown(th)
	})
	if err := r.m.Run(); err != nil {
		t.Fatal(err)
	}
}

func smallPolicy() Policy {
	return Policy{HeapFraction: 0.25, MinBytes: 4 << 10, BlockFactor: 2}
}

func TestFreeQuarantinesNotReuses(t *testing.T) {
	r := newRig(revoke.Reloaded, smallPolicy())
	r.runApp(t, func(th *kernel.Thread) {
		c, err := r.q.Malloc(th, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.q.Free(th, c); err != nil {
			t.Fatal(err)
		}
		// The address space must NOT be reused before revocation.
		c2, err := r.q.Malloc(th, 64)
		if err != nil {
			t.Fatal(err)
		}
		if c2.Base() == c.Base() {
			t.Fatal("quarantined address space reused before revocation")
		}
		// The stale capability still works (UAF window, §2.2.2): the old
		// object is accessible until the epoch completes.
		if err := th.Load(c, 0, 16); err != nil {
			t.Fatalf("access to quarantined object failed: %v", err)
		}
	})
	if r.q.Stats().TotalQuarantined == 0 {
		t.Fatal("nothing quarantined")
	}
}

func TestDoubleFreeOfQuarantinedObject(t *testing.T) {
	r := newRig(revoke.Reloaded, smallPolicy())
	r.runApp(t, func(th *kernel.Thread) {
		c, _ := r.q.Malloc(th, 64)
		if err := r.q.Free(th, c); err != nil {
			t.Fatal(err)
		}
		if err := r.q.Free(th, c); !errors.Is(err, ErrQuarantinedDoubleFree) {
			t.Fatalf("double free err = %v", err)
		}
	})
}

func TestPolicyTriggersRevocation(t *testing.T) {
	r := newRig(revoke.Reloaded, smallPolicy())
	r.runApp(t, func(th *kernel.Thread) {
		// Keep 64 KiB live so the fraction has a base, then churn enough
		// frees to cross MinBytes and the fraction.
		var keep []ca.Capability
		for i := 0; i < 16; i++ {
			c, _ := r.q.Malloc(th, 4096)
			keep = append(keep, c)
			th.SetReg(i, c)
		}
		for i := 0; i < 2000; i++ {
			c, err := r.q.Malloc(th, 256)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.q.Free(th, c); err != nil {
				t.Fatal(err)
			}
		}
		_ = keep
	})
	st := r.q.Stats()
	if st.Triggers == 0 {
		t.Fatal("policy never triggered revocation")
	}
	if len(r.s.Records()) == 0 {
		t.Fatal("no revocation epochs ran")
	}
}

func TestQuarantineDrainsAndReuses(t *testing.T) {
	r := newRig(revoke.Reloaded, smallPolicy())
	r.runApp(t, func(th *kernel.Thread) {
		c, _ := r.q.Malloc(th, 64)
		base := c.Base()
		r.q.Free(th, c)
		r.q.Flush(th)
		if st := r.q.Stats(); st.QuarantinedBytes != 0 {
			t.Fatalf("quarantine = %d after flush", st.QuarantinedBytes)
		}
		// Shadow must be unpainted and the address reusable now.
		if th.P.Shadow.Test(base) {
			t.Fatal("shadow still painted after drain")
		}
		c2, _ := r.q.Malloc(th, 64)
		if c2.Base() != base {
			t.Fatalf("drained storage not reused: got %#x want %#x", c2.Base(), base)
		}
	})
}

// TestFreeAllocatesNothingAfterDrain pins the quarantine list's chunk
// recycling: once one trigger and drain cycle has returned its chunks to
// the shim, frees into the next buffer make no heap allocation, also when
// one crosses into a new chunk. The second round of objects reuses the
// drained storage, so painting it finds the revocation bitmap's recycled
// chunks too.
func TestFreeAllocatesNothingAfterDrain(t *testing.T) {
	r := newRig(revoke.Reloaded, smallPolicy())
	r.runApp(t, func(th *kernel.Thread) {
		const n = 2 * chunkEntries
		objs := make([]ca.Capability, n)
		for round := 0; round < 2; round++ {
			for i := range objs {
				objs[i], _ = r.q.Malloc(th, 64)
			}
			if round == 1 {
				break
			}
			for _, c := range objs {
				if err := r.q.Free(th, c); err != nil {
					t.Fatal(err)
				}
			}
			r.q.Flush(th)
		}
		// AllocsPerRun calls the function once before it counts, so the
		// counted call starts on a full chunk and takes the second one.
		next := objs
		allocs := testing.AllocsPerRun(1, func() {
			for _, c := range next[:chunkEntries] {
				if err := r.q.Free(th, c); err != nil {
					t.Fatal(err)
				}
			}
			next = next[chunkEntries:]
		})
		if allocs != 0 {
			t.Errorf("%d frees after a drain made %v heap allocations, want 0", chunkEntries, allocs)
		}
		if got := r.q.cur.count; got != n {
			t.Errorf("the buffer holds %d entries, want %d", got, n)
		}
	})
}

// TestUAFBecomesHarmlessAfterRevocation is the paper's core security story
// end-to-end: free, revoke, and the dangling pointer (held in memory and
// register) is architecturally dead, while the reused storage is intact.
func TestUAFBecomesHarmlessAfterRevocation(t *testing.T) {
	for _, strat := range []revoke.Strategy{revoke.CHERIvoke, revoke.Cornucopia, revoke.Reloaded} {
		t.Run(strat.String(), func(t *testing.T) {
			r := newRig(strat, smallPolicy())
			r.runApp(t, func(th *kernel.Thread) {
				holder, _ := r.q.Malloc(th, 64)
				victim, _ := r.q.Malloc(th, 128)
				th.StoreCap(holder, 0, victim) // dangling alias in memory
				th.SetReg(0, victim)           // and in a register
				if err := r.q.Free(th, victim); err != nil {
					t.Fatal(err)
				}
				r.q.Flush(th)
				// Storage is reusable; a new object may now alias it.
				reuse, _ := r.q.Malloc(th, 128)
				if reuse.Base() != victim.Base() {
					t.Fatalf("expected reuse of %#x, got %#x", victim.Base(), reuse.Base())
				}
				// Both stale references must be dead.
				fromMem, err := th.LoadCap(holder, 0)
				if err != nil {
					t.Fatal(err)
				}
				if fromMem.Tag() {
					t.Error("stale capability in memory alive after reuse (UAR!)")
				}
				if th.Reg(0).Tag() {
					t.Error("stale capability in register alive after reuse (UAR!)")
				}
				// And the new object is fully usable.
				if err := th.Store(reuse, 0, 128); err != nil {
					t.Error(err)
				}
			})
		})
	}
}

func TestBlocksWhenQuarantineDoubleFull(t *testing.T) {
	// Use CHERIvoke with a tiny policy and lots of frees racing the epoch.
	pol := Policy{HeapFraction: 0.25, MinBytes: 2 << 10, BlockFactor: 2}
	r := newRig(revoke.CHERIvoke, pol)
	r.runApp(t, func(th *kernel.Thread) {
		var keep []ca.Capability
		for i := 0; i < 8; i++ {
			c, _ := r.q.Malloc(th, 4096)
			keep = append(keep, c)
			th.SetReg(i, c)
		}
		for i := 0; i < 5000; i++ {
			c, err := r.q.Malloc(th, 512)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.q.Free(th, c); err != nil {
				t.Fatal(err)
			}
		}
		_ = keep
	})
	st := r.q.Stats()
	if st.Blocks == 0 {
		t.Skip("no allocation blocked; policy race did not occur at this scale")
	}
	if st.BlockCycles == 0 {
		t.Fatal("blocks counted but no blocked cycles")
	}
}

func TestStatsSamples(t *testing.T) {
	r := newRig(revoke.PaintSync, smallPolicy())
	r.runApp(t, func(th *kernel.Thread) {
		var keep []ca.Capability
		for i := 0; i < 16; i++ {
			c, _ := r.q.Malloc(th, 4096)
			keep = append(keep, c)
		}
		for i := 0; i < 500; i++ {
			c, _ := r.q.Malloc(th, 1024)
			r.q.Free(th, c)
		}
		_ = keep
	})
	st := r.q.Stats()
	if st.Triggers > 0 && st.LiveAtTriggerCount != st.Triggers {
		t.Fatalf("trigger samples %d != triggers %d", st.LiveAtTriggerCount, st.Triggers)
	}
	if st.PeakQuarantinedBytes == 0 {
		t.Fatal("no quarantine peak recorded")
	}
}

// TestEpochParityBoundary pins the §2.2.3 parity rule at its boundaries by
// driving the epoch counter by hand (the service is never started, so no
// pass runs behind our back): memory painted at an even epoch e may drain
// exactly when the counter reaches e+2 — not at e (trigger time) and not at
// e+1 (the pass is still in flight) — and memory painted while the counter
// is odd (a pass already running that may have swept the span before the
// paint) must wait a full extra pass, draining exactly at e+3.
func TestEpochParityBoundary(t *testing.T) {
	r := newRig(revoke.PaintSync, smallPolicy())
	r.p.Spawn("app", []int{3}, func(th *kernel.Thread) {
		// --- painted at even e=0: clear target 2 -----------------------
		c, err := r.q.Malloc(th, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.q.Free(th, c); err != nil {
			t.Fatal(err)
		}
		if e := r.p.Epoch(); e != 0 {
			t.Fatalf("initial epoch = %d", e)
		}
		r.q.trigger(th)
		if r.q.inflight == nil || r.q.inflight.target != 2 {
			t.Fatalf("even-e trigger target = %+v, want 2", r.q.inflight)
		}
		r.q.drainIfClear(th)
		if r.q.inflight == nil {
			t.Fatal("drained at the trigger epoch itself (0 < target 2)")
		}
		r.p.AdvanceEpoch(th) // 1: pass in flight
		r.q.drainIfClear(th)
		if r.q.inflight == nil {
			t.Fatal("drained mid-pass at epoch 1 (off-by-one: 1 < target 2)")
		}
		r.p.AdvanceEpoch(th) // 2: pass complete
		r.q.drainIfClear(th)
		if r.q.inflight != nil {
			t.Fatal("not drained at the even-e clear target 2")
		}

		// --- painted at odd e=3 (mid-epoch): clear target 6 ------------
		r.p.AdvanceEpoch(th) // 3: a new pass is in flight
		c2, err := r.q.Malloc(th, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.q.Free(th, c2); err != nil {
			t.Fatal(err)
		}
		r.q.trigger(th)
		if r.q.inflight == nil || r.q.inflight.target != 6 {
			t.Fatalf("odd-e trigger target = %+v, want 6 (= 3+3)", r.q.inflight)
		}
		for e := uint64(4); e <= 5; e++ {
			r.p.AdvanceEpoch(th)
			r.q.drainIfClear(th)
			if r.q.inflight == nil {
				t.Fatalf("drained at epoch %d; the in-flight pass at paint time must not count", e)
			}
		}
		r.p.AdvanceEpoch(th) // 6: the first full pass after the paint ended
		r.q.drainIfClear(th)
		if r.q.inflight != nil {
			t.Fatal("not drained at the odd-e clear target 6")
		}
		// Both objects' storage is reusable only now.
		if th.P.Shadow.Test(c.Base()) || th.P.Shadow.Test(c2.Base()) {
			t.Fatal("shadow still painted after both drains")
		}
	})
	if err := r.m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFreeInvalidCapabilities(t *testing.T) {
	r := newRig(revoke.Reloaded, smallPolicy())
	r.runApp(t, func(th *kernel.Thread) {
		c, _ := r.q.Malloc(th, 64)
		if err := r.q.Free(th, c.ClearTag()); err == nil {
			t.Error("free of untagged capability accepted")
		}
		interior := c.AddAddr(16)
		sub, _ := interior.SetBounds(16)
		if err := r.q.Free(th, sub); !errors.Is(err, alloc.ErrWildFree) {
			t.Errorf("interior free err = %v", err)
		}
	})
}
