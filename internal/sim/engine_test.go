package sim

import (
	"runtime"
	"strings"
	"testing"
)

func cfg() Config {
	c := DefaultConfig()
	c.Cores = 2
	return c
}

func TestSingleThreadAdvancesClock(t *testing.T) {
	e := New(cfg())
	e.Spawn("w", []int{0}, func(th *Thread) {
		for i := 0; i < 1000; i++ {
			th.Tick(100)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.CoreClock(0); got != 100_000 {
		t.Fatalf("core 0 clock = %d, want 100000", got)
	}
	if got := e.CoreClock(1); got != 0 {
		t.Fatalf("core 1 clock = %d, want 0", got)
	}
	if e.WallClock() != 100_000 || e.TotalCPU() != 100_000 {
		t.Fatalf("wall %d cpu %d", e.WallClock(), e.TotalCPU())
	}
}

func TestTwoCoresRunInParallelVirtualTime(t *testing.T) {
	e := New(cfg())
	work := func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Tick(10_000)
		}
	}
	e.Spawn("a", []int{0}, work)
	e.Spawn("b", []int{1}, work)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Each core did 1M cycles of work; wall clock is 1M (parallel), CPU 2M.
	if e.WallClock() != 1_000_000 {
		t.Fatalf("wall = %d, want 1000000", e.WallClock())
	}
	if e.TotalCPU() != 2_000_000 {
		t.Fatalf("cpu = %d, want 2000000", e.TotalCPU())
	}
}

func TestSkewBounded(t *testing.T) {
	c := cfg()
	c.SkewQuantum = 10_000
	e := New(c)
	var maxSkew uint64
	probe := func(other int) func(*Thread) {
		return func(th *Thread) {
			for i := 0; i < 1000; i++ {
				th.Tick(500)
				mine := th.Now()
				theirs := e.CoreClock(other)
				if mine > theirs && mine-theirs > maxSkew {
					maxSkew = mine - theirs
				}
			}
		}
	}
	e.Spawn("a", []int{0}, probe(1))
	e.Spawn("b", []int{1}, probe(0))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Skew can exceed the quantum by at most one tick's worth of cycles.
	if maxSkew > c.SkewQuantum+500 {
		t.Fatalf("max skew %d exceeds quantum %d", maxSkew, c.SkewQuantum)
	}
}

func TestCoreSharingRoundRobin(t *testing.T) {
	c := cfg()
	c.OSQuantum = 50_000
	e := New(c)
	var aCPU, bCPU uint64
	mk := func(cpu *uint64) func(*Thread) {
		return func(th *Thread) {
			for i := 0; i < 2000; i++ {
				th.Tick(500)
			}
			*cpu = th.CPU()
		}
	}
	e.Spawn("a", []int{0}, mk(&aCPU))
	e.Spawn("b", []int{0}, mk(&bCPU))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if aCPU != 1_000_000 || bCPU != 1_000_000 {
		t.Fatalf("cpu a=%d b=%d", aCPU, bCPU)
	}
	// Shared core: wall clock is the sum, 2M.
	if e.WallClock() != 2_000_000 {
		t.Fatalf("wall = %d, want 2000000", e.WallClock())
	}
}

func TestSleepWakesAtDeadline(t *testing.T) {
	e := New(cfg())
	var woke uint64
	e.Spawn("s", []int{0}, func(th *Thread) {
		th.Tick(100)
		th.Sleep(10_000)
		woke = th.Now()
		th.Tick(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 10_100 {
		t.Fatalf("woke at %d, want 10100", woke)
	}
}

func TestSleepDoesNotBurnCPU(t *testing.T) {
	e := New(cfg())
	e.Spawn("s", []int{0}, func(th *Thread) {
		th.Sleep(1_000_000)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.TotalCPU() != 0 {
		t.Fatalf("cpu = %d, want 0", e.TotalCPU())
	}
	if e.WallClock() != 1_000_000 {
		t.Fatalf("wall = %d", e.WallClock())
	}
}

func TestEventWaitBroadcast(t *testing.T) {
	e := New(cfg())
	ev := e.NewEvent()
	ready := false
	var waiterWoke, bcastAt uint64
	e.Spawn("waiter", []int{0}, func(th *Thread) {
		ev.WaitUntil(th, func() bool { return ready })
		waiterWoke = th.Now()
		th.Tick(1)
	})
	e.Spawn("waker", []int{1}, func(th *Thread) {
		th.Tick(777_000)
		ready = true
		bcastAt = th.Now()
		ev.Broadcast(th)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The waiter's core was idle; it must resume at the waker's time.
	if waiterWoke != bcastAt {
		t.Fatalf("waiter woke at %d, broadcast at %d", waiterWoke, bcastAt)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := New(cfg())
	ev := e.NewEvent()
	e.Spawn("stuck", []int{0}, func(th *Thread) {
		ev.Wait(th)
	})
	err := e.Run()
	if err == nil {
		t.Fatal("deadlock not detected")
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("deadlock error %q does not name the thread", err)
	}
}

// explodeAfterTick panics once it has been rotated out and resumed; its
// name must appear in the stack the panic carries out of Run.
func explodeAfterTick(th *Thread) {
	th.Tick(cfg().SkewQuantum)
	panic("boom")
}

// TestThreadPanicSurfacesFromRun pins that a panicking simulated thread
// makes Run panic in its caller's goroutine, where a recover (the
// experiment pool's, say) turns it into a failed job, and that the value
// names the thread and carries the thread's own stack.
func TestThreadPanicSurfacesFromRun(t *testing.T) {
	for _, s := range schedulers {
		t.Run(s.name, func(t *testing.T) {
			e := s.new(cfg())
			e.Spawn("bystander", []int{1}, func(th *Thread) {
				for i := 0; i < 100; i++ {
					th.Tick(1_000)
				}
			})
			e.Spawn("exploder", []int{0}, explodeAfterTick)
			var r any
			func() {
				defer func() { r = recover() }()
				e.Run()
			}()
			if r == nil {
				t.Fatal("Run returned; want the thread's panic")
			}
			msg, _ := r.(string)
			for _, want := range []string{"exploder", "boom", "sim.explodeAfterTick"} {
				if !strings.Contains(msg, want) {
					t.Errorf("panic value lacks %q:\n%v", want, r)
				}
			}
		})
	}
}

// TestThreadGoexitSurfacesFromRun pins that runtime.Goexit in a thread
// (testing's FailNow, say) ends the goroutine that called Run.
func TestThreadGoexitSurfacesFromRun(t *testing.T) {
	for _, s := range schedulers {
		t.Run(s.name, func(t *testing.T) {
			e := s.new(cfg())
			e.Spawn("quitter", []int{0}, func(th *Thread) {
				th.Tick(1)
				runtime.Goexit()
			})
			returned := false
			done := make(chan struct{})
			go func() {
				defer close(done)
				e.Run()
				returned = true
			}()
			<-done
			if returned {
				t.Fatal("Run returned after its thread called Goexit")
			}
		})
	}
}

func TestSpawnFromRunningThread(t *testing.T) {
	e := New(cfg())
	var childStart uint64
	e.Spawn("parent", []int{0}, func(th *Thread) {
		th.Tick(42_000)
		e.Spawn("child", []int{1}, func(ch *Thread) {
			childStart = ch.Now()
			ch.Tick(1)
		})
		th.Tick(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childStart < 42_000 {
		t.Fatalf("child started at %d, before parent spawned it at 42000", childStart)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		e := New(cfg())
		ev := e.NewEvent()
		n := 0
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn("w", []int{i % 2}, func(th *Thread) {
				for j := 0; j < 100; j++ {
					th.Tick(uint64(100 + i*13 + j))
					if j == 50 {
						ev.Broadcast(th)
					}
				}
				n++
				if n == 4 {
					ev.Broadcast(th)
				}
			})
		}
		e.Spawn("observer", nil, func(th *Thread) {
			ev.WaitUntil(th, func() bool { return n == 4 })
			th.Tick(5)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.WallClock(), e.TotalCPU()
	}
	w1, c1 := run()
	for i := 0; i < 3; i++ {
		w2, c2 := run()
		if w1 != w2 || c1 != c2 {
			t.Fatalf("nondeterministic: run0=(%d,%d) run%d=(%d,%d)", w1, c1, i+1, w2, c2)
		}
	}
}

func TestYieldRotates(t *testing.T) {
	e := New(cfg())
	var order []string
	e.Spawn("a", []int{0}, func(th *Thread) {
		th.Tick(10)
		order = append(order, "a1")
		th.Yield()
		order = append(order, "a2")
		th.Tick(10)
	})
	e.Spawn("b", []int{0}, func(th *Thread) {
		th.Tick(10)
		order = append(order, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a1,b1,a2"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

func TestSecondsConversion(t *testing.T) {
	e := New(Config{Cores: 1, SkewQuantum: 1000, OSQuantum: 1000, HzGHz: 2.5})
	if s := e.Seconds(2_500_000_000); s != 1.0 {
		t.Fatalf("2.5e9 cycles = %v s, want 1", s)
	}
}

// TestObserverAttachedMidRun pins that an observer installed while
// threads are running receives exactly the busy cycles charged after it was
// installed: none of the cycles the running thread ticked earlier in its
// slice, and none of any other thread's earlier work.
func TestObserverAttachedMidRun(t *testing.T) {
	for _, s := range schedulers {
		t.Run(s.name, func(t *testing.T) {
			e := s.new(cfg())
			obs := newRecObs()
			var cpuAt []uint64
			e.Spawn("attacher", []int{0}, func(th *Thread) {
				for i := 0; i < 10; i++ {
					th.Tick(100)
				}
				th.Sleep(2_000)
				th.Tick(250) // undelivered when the observer arrives
				for _, o := range e.Threads() {
					cpuAt = append(cpuAt, o.CPU())
				}
				e.SetClockObserver(obs)
				for i := 0; i < 7; i++ {
					th.Tick(300)
				}
				th.Sleep(1_000)
				th.Tick(50)
			})
			// The peer outruns one skew window before the observer
			// arrives and keeps working after.
			e.Spawn("peer", []int{1}, func(th *Thread) {
				for i := 0; i < 40; i++ {
					th.Tick(4_000)
				}
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			for i, th := range e.Threads() {
				var got uint64
				for k, v := range obs.busy {
					if k[1] == i {
						got += v
					}
				}
				if want := th.CPU() - cpuAt[i]; got != want {
					t.Errorf("%s: observer received %d busy cycles, %d were charged after it was installed",
						th.Name(), got, want)
				}
			}
			if obs.busy[[2]int{0, 0}] != 7*300+50 || obs.busy[[2]int{1, 1}] == 0 {
				t.Errorf("busy deliveries %v, want 2150 for the attacher and some for the peer", obs.busy)
			}
		})
	}
}

// TestCoreBusyExcludesIdle pins that a core's busy cycles are its clock
// less the gaps it idled over: a thread that sleeps S cycles and then ticks
// T leaves its core's clock at S+T and its busy cycles at T.
func TestCoreBusyExcludesIdle(t *testing.T) {
	const sleep, work = 70_000, 1_234
	for _, s := range schedulers {
		t.Run(s.name, func(t *testing.T) {
			e := s.new(cfg())
			e.Spawn("sleeper", []int{0}, func(th *Thread) {
				th.Sleep(sleep)
				th.Tick(work)
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if got := e.CoreClock(0); got != sleep+work {
				t.Errorf("core clock %d, want %d", got, sleep+work)
			}
			if got := e.CoreBusy(0); got != work {
				t.Errorf("CoreBusy %d, want %d", got, work)
			}
			if got := e.TotalCPU(); got != work {
				t.Errorf("TotalCPU %d, want %d", got, work)
			}
		})
	}
}

// benchEngines runs a benchmark body under both schedulers, so their
// host cost is directly comparable in one -bench run.
func benchEngines(b *testing.B, body func(b *testing.B, newEngine func(Config) *Engine)) {
	for _, s := range schedulers {
		s := s
		b.Run(s.name, func(b *testing.B) { body(b, s.new) })
	}
}

func BenchmarkTickHot(b *testing.B) {
	benchEngines(b, func(b *testing.B, newEngine func(Config) *Engine) {
		e := newEngine(Config{Cores: 1, SkewQuantum: 1 << 40, OSQuantum: 1 << 40, HzGHz: 2.5})
		e.Spawn("w", []int{0}, func(th *Thread) {
			for i := 0; i < b.N; i++ {
				th.Tick(1)
			}
		})
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkHandoff(b *testing.B) {
	benchEngines(b, func(b *testing.B, newEngine func(Config) *Engine) {
		c := DefaultConfig()
		c.Cores = 2
		c.SkewQuantum = 1
		e := newEngine(c)
		for i := 0; i < 2; i++ {
			i := i
			e.Spawn("w", []int{i}, func(th *Thread) {
				for j := 0; j < b.N/2; j++ {
					th.Tick(1)
				}
			})
		}
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkSliceExpiry is the solo-thread slice-expiry regime: every tick
// ends an engine slice, but the thread is always still the minimal entity.
// The production scheduler continues in place with no switch; the
// classic one parks to the Run loop and is resumed at every slice.
func BenchmarkSliceExpiry(b *testing.B) {
	benchEngines(b, func(b *testing.B, newEngine func(Config) *Engine) {
		c := DefaultConfig()
		c.Cores = 1
		c.SkewQuantum = 1
		e := newEngine(c)
		e.Spawn("w", []int{0}, func(th *Thread) {
			for i := 0; i < b.N; i++ {
				th.Tick(1)
			}
		})
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkSleepFleet is the open-loop fleet regime: many threads, each
// mostly asleep, waking briefly in an interleaved order. Dominated by
// sleeper selection (classic: an all-threads scan per dispatch;
// production: a heap) and the coroutine switches of each wake.
func BenchmarkSleepFleet(b *testing.B) {
	benchEngines(b, func(b *testing.B, newEngine func(Config) *Engine) {
		c := DefaultConfig()
		c.Cores = 2
		e := newEngine(c)
		const fleet = 64
		per := b.N/fleet + 1
		for i := 0; i < fleet; i++ {
			i := i
			e.Spawn("conn", []int{i % 2}, func(th *Thread) {
				for j := 0; j < per; j++ {
					th.Tick(50)
					th.Sleep(uint64(10_000 + i*37))
				}
			})
		}
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// TestRunQueueRing drives a run queue through random pushes at both ends
// and pops, across wrap-arounds and growths of its array, against a slice
// holding the same threads in order.
func TestRunQueueRing(t *testing.T) {
	ths := make([]*Thread, 64)
	for i := range ths {
		ths[i] = &Thread{id: i}
	}
	var q runQueue
	var model []*Thread
	rng := uint64(7)
	for step := 0; step < 5000; step++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		switch op := rng >> 61; {
		case op < 3 && len(model) < len(ths):
			th := ths[(rng>>32)%uint64(len(ths))]
			q.pushBack(th)
			model = append(model, th)
		case op < 5 && len(model) < len(ths):
			th := ths[(rng>>32)%uint64(len(ths))]
			q.pushFront(th)
			model = append([]*Thread{th}, model...)
		case len(model) > 0:
			q.popFront()
			model = model[1:]
		}
		if q.len() != len(model) {
			t.Fatalf("step %d: len %d, model %d", step, q.len(), len(model))
		}
		if len(model) > 0 && q.front() != model[0] {
			t.Fatalf("step %d: front is thread %d, model %d", step, q.front().id, model[0].id)
		}
	}
	for i := range model {
		if got := q.front(); got != model[i] {
			t.Fatalf("drain %d: thread %d, model %d", i, got.id, model[i].id)
		}
		q.popFront()
	}
}
