package revoke

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/kernel"
)

// TestSweepSharedWorkersExceedPages drives sweepShared directly with more
// configured workers than pages — and with no worker threads running at
// all. Every slice (including the empty tails the partition produces for a
// 0- or 1-page list) must be claimed and counted exactly once, so the call
// converges with workLeft at zero and no page double-counted. The old
// fixed-assignment scheme handed slices to worker threads that were never
// spawned and waited on them forever.
func TestSweepSharedWorkersExceedPages(t *testing.T) {
	m := kernel.NewMachine(kernel.DefaultMachineConfig())
	p := m.NewProcess(1)
	h := alloc.NewHeap(p)
	s := NewService(p, Config{Strategy: Cornucopia, Workers: 3})
	p.Spawn("driver", []int{3}, func(th *kernel.Thread) {
		holder, err := h.Alloc(th, 64)
		if err != nil {
			t.Fatal(err)
		}
		// Touch the page so it is resident: pages fault in on demand.
		if err := th.StoreCap(holder, 0, holder); err != nil {
			t.Fatal(err)
		}
		pages := s.pagesWhere(anyPage)
		if len(pages) == 0 {
			t.Fatal("no resident pages to sweep")
		}

		// 0 pages: all three slices are empty.
		var rec EpochRecord
		s.sweepShared(th, nil, &rec, 0)
		if rec.PagesVisited != 0 {
			t.Errorf("0-page sweep visited %d pages", rec.PagesVisited)
		}
		if s.workLeft != 0 {
			t.Errorf("0-page sweep left workLeft=%d, want 0", s.workLeft)
		}

		// 1 page split over 3 workers: two empty slices, one singleton.
		rec = EpochRecord{}
		s.sweepShared(th, pages[:1], &rec, 0)
		if rec.PagesVisited != 1 {
			t.Errorf("1-page sweep visited %d pages, want exactly 1 (no double count)", rec.PagesVisited)
		}
		if s.workLeft != 0 {
			t.Errorf("1-page sweep left workLeft=%d, want 0", s.workLeft)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMultiWorkerEpochFewPages runs full epochs through Start()ed worker
// threads with fewer resident pages than workers: first an epoch with no
// heap allocations at all, then one with a single small object. Both must
// converge (the empty tail slices are claimed like any other) and report a
// consistent record.
func TestMultiWorkerEpochFewPages(t *testing.T) {
	for _, allocs := range []int{0, 1} {
		r := newRig(Reloaded, 3)
		r.runApp(t, func(th *kernel.Thread) {
			for i := 0; i < allocs; i++ {
				if _, err := r.h.Alloc(th, 64); err != nil {
					t.Fatal(err)
				}
			}
			e := r.s.RequestRevocation(th)
			th.P.WaitEpochAtLeast(th, kernel.EpochClearTarget(e))
		})
		recs := r.s.Records()
		if len(recs) == 0 {
			t.Fatalf("allocs=%d: no epoch record", allocs)
		}
		if r.s.workLeft != 0 {
			t.Fatalf("allocs=%d: workLeft=%d after epoch, want 0", allocs, r.s.workLeft)
		}
	}
}

// TestShutdownRacingMultiWorkerEpoch requests an epoch and shuts the
// service down immediately, without waiting for it. The workers observe
// shutdown and the work broadcast together; they must drain the in-flight
// slices before exiting, or the service thread waits on workDone forever
// and the simulator reports a deadlock. (Before the dynamic-claim fix the
// workers honored shutdown first and this test deadlocked.)
func TestShutdownRacingMultiWorkerEpoch(t *testing.T) {
	r := newRig(Reloaded, 3)
	r.s.Start()
	r.p.Spawn("app", []int{3}, func(th *kernel.Thread) {
		for i := 0; i < 8; i++ {
			if _, err := r.h.Alloc(th, 4096); err != nil {
				t.Fatal(err)
			}
		}
		r.s.RequestRevocation(th)
		r.s.Shutdown(th) // do NOT wait for the epoch
	})
	if err := r.m.Run(); err != nil {
		t.Fatal(err)
	}
	recs := r.s.Records()
	if len(recs) != 1 {
		t.Fatalf("%d epoch records after shutdown race, want 1", len(recs))
	}
	if recs[0].EndCycle <= recs[0].StartCycle {
		t.Fatal("racing epoch has no duration")
	}
	if r.s.workLeft != 0 {
		t.Fatalf("workLeft=%d after shutdown race, want 0", r.s.workLeft)
	}
}
