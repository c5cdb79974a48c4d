package sim

import "testing"

// TestBroadcastNeverRewindsTime reproduces the migration time-travel bug:
// a thread that ran far ahead on one core blocks; a thread on a lagging
// core wakes it. The woken thread must resume at or after its own last
// clock, not at the (earlier) waker's clock — otherwise durations measured
// across a block underflow.
func TestBroadcastNeverRewindsTime(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	e := New(cfg)
	ev := e.NewEvent()
	woken := false
	var before, after uint64
	e.Spawn("ahead", nil, func(th *Thread) {
		// Run far ahead, then block.
		th.Tick(10_000_000)
		before = th.Now()
		ev.Wait(th)
		after = th.Now()
		woken = true
		th.Tick(1)
	})
	e.Spawn("behind", []int{1}, func(th *Thread) {
		// Stay far behind the first thread, broadcasting until the wake
		// lands (a broadcast with no waiters is a no-op).
		for i := 0; !woken && i < 200_000; i++ {
			th.Tick(100)
			ev.Broadcast(th)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !woken {
		t.Fatal("waiter never woke")
	}
	if after < before {
		t.Fatalf("time ran backwards across a wake: before=%d after=%d", before, after)
	}
}

// TestSleepNeverRewindsAcrossMigration checks that a thread migrating to a
// lagging core after preemption still observes monotone time.
func TestMonotoneAcrossMigration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 3
	cfg.OSQuantum = 10_000
	e := New(cfg)
	// A competitor keeps core 0 busy so the migratory thread gets rotated.
	e.Spawn("hog", []int{0}, func(th *Thread) {
		for i := 0; i < 3000; i++ {
			th.Tick(1000)
		}
	})
	var violated bool
	e.Spawn("migrant", []int{0, 1, 2}, func(th *Thread) {
		last := uint64(0)
		for i := 0; i < 3000; i++ {
			th.Tick(1000)
			now := th.Now()
			if now < last {
				violated = true
			}
			last = now
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if violated {
		t.Fatal("observed time decreased across migration")
	}
}

// TestRunQueueFIFOHeadOfLine pins nextEntity's intended FIFO semantics:
// run queues honor arrival order, so a woken thread whose readyAt lies in
// the core's future delays a thread queued behind it even when that
// thread is ready sooner. The scenario: a waker running far ahead on
// core 1 broadcasts, committing w to core 0's queue with readyAt
// ~795_000 while core 0's clock is still 0; the waker's next slice
// expiry then wakes sleeper z (ready at 781_000), which lands BEHIND w.
// FIFO means z does not jump the queue: core 0 idles until w's readyAt
// and z resumes only after w ran, not at its own wake time. Reordering
// by readyAt would change the model and perturb every committed baseline
// document, so both schedulers must exhibit exactly this behavior.
func TestRunQueueFIFOHeadOfLine(t *testing.T) {
	for _, s := range schedulers {
		s := s
		t.Run(s.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Cores = 2
			e := s.new(cfg)
			ev := e.NewEvent()
			var wResume, zResume uint64
			e.Spawn("w", []int{0}, func(th *Thread) {
				ev.Wait(th)
				wResume = th.Now()
				th.Tick(2_000)
			})
			e.Spawn("z", []int{0}, func(th *Thread) {
				th.Tick(1_000)
				th.Sleep(780_000) // wakes at 781_000, before w's readyAt
				zResume = th.Now()
			})
			e.Spawn("waker", []int{1}, func(th *Thread) {
				for th.Now() < 755_000 {
					th.Tick(5_000)
				}
				th.Yield() // fresh engine slice: next expiry is ≥ 805_000
				th.Tick(40_000)
				ev.Broadcast(th) // w -> core 0 queue head, readyAt ~795_000
				th.Tick(60_000)  // slice expiry: z (ready 781_000) woken behind w
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if wResume < 790_000 {
				t.Fatalf("w resumed at %d, want >= 790000 (broadcast time)", wResume)
			}
			if zResume < wResume {
				t.Fatalf("z (resumed %d) ran before queue head w (resumed %d): FIFO violated", zResume, wResume)
			}
			if zResume < 781_000+10_000 {
				t.Fatalf("z resumed at %d, want head-of-line delay well past its 781000 wake", zResume)
			}
		})
	}
}
