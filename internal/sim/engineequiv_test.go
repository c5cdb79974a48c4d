package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// newClassic builds an engine running the classic scheduler: a full scan
// of every thread per dispatch, a park to the Run loop at every yield and
// immediate observer delivery. It is the reference every differential in
// this package checks the production scheduler against.
func newClassic(cfg Config) *Engine {
	e := New(cfg)
	e.classic = true
	return e
}

// schedulers names both implementations for table-driven tests.
var schedulers = []struct {
	name string
	new  func(Config) *Engine
}{{"fast", New}, {"classic", newClassic}}

// recObs records everything a ClockObserver can learn: per-(core,thread)
// busy totals, per-core idle totals, and per-core delivered sums. The
// inline scheduler batches Busy calls, so the call sequences differ
// between schedulers by construction — but every total must match
// exactly, and per core busy + idle must equal the core clock (the
// conservation invariant telemetry rests on).
type recObs struct {
	busy map[[2]int]uint64
	idle map[int]uint64
}

func newRecObs() *recObs {
	return &recObs{busy: map[[2]int]uint64{}, idle: map[int]uint64{}}
}

func (o *recObs) Busy(core, thread int, cycles uint64) { o.busy[[2]int{core, thread}] += cycles }
func (o *recObs) Idle(core int, cycles uint64)         { o.idle[core] += cycles }

func (o *recObs) coreTotal(core int) uint64 {
	t := o.idle[core]
	for k, v := range o.busy {
		if k[0] == core {
			t += v
		}
	}
	return t
}

// simOutcome is everything observable about a finished run.
type simOutcome struct {
	Err        string
	Wall, CPU  uint64
	CoreClocks []uint64
	CoreBusy   []uint64
	ThreadCPU  []uint64
	Log        []string
	Busy       map[[2]int]uint64
	Idle       map[int]uint64
}

// runBoth executes build under both schedulers and fails on any
// observable divergence. build spawns threads on e and may append to the
// shared log; the log is part of the compared outcome, so any difference
// in execution order or observed virtual times fails the suite.
func runBoth(t *testing.T, name string, cfg Config, build func(e *Engine, logf func(string, ...interface{}))) {
	t.Helper()
	run := func(kind string, newEngine func(Config) *Engine) simOutcome {
		e := newEngine(cfg)
		obs := newRecObs()
		e.SetClockObserver(obs)
		var log []string
		logf := func(format string, args ...interface{}) {
			log = append(log, fmt.Sprintf(format, args...))
		}
		build(e, logf)
		err := e.Run()
		out := simOutcome{
			Wall: e.WallClock(), CPU: e.TotalCPU(),
			Log: log, Busy: obs.busy, Idle: obs.idle,
		}
		if err != nil {
			out.Err = err.Error()
		}
		for i := 0; i < cfg.Cores; i++ {
			out.CoreClocks = append(out.CoreClocks, e.CoreClock(i))
			out.CoreBusy = append(out.CoreBusy, e.CoreBusy(i))
			if got := obs.coreTotal(i); got != e.CoreClock(i) {
				t.Errorf("%s/%s: core %d busy+idle = %d, clock = %d (conservation violated)",
					name, kind, i, got, e.CoreClock(i))
			}
		}
		for _, th := range e.Threads() {
			out.ThreadCPU = append(out.ThreadCPU, th.CPU())
		}
		return out
	}
	fast := run("fast", New)
	classic := run("classic", newClassic)
	if !reflect.DeepEqual(fast, classic) {
		t.Errorf("%s: schedulers diverge\n fast:    %+v\n classic: %+v", name, fast, classic)
	}
}

// TestEngineEquivalence pins that the inline and classic schedulers make
// bit-identical scheduling decisions across the package's behavioral
// regimes: every virtual time observed by any thread, every final clock,
// every observer total, and every error must match.
func TestEngineEquivalence(t *testing.T) {
	base := DefaultConfig()
	base.Cores = 2

	t.Run("hot-solo", func(t *testing.T) {
		runBoth(t, "hot-solo", base, func(e *Engine, logf func(string, ...interface{})) {
			e.Spawn("w", []int{0}, func(th *Thread) {
				for i := 0; i < 5000; i++ {
					th.Tick(uint64(1 + i%97))
				}
				logf("w done at %d", th.Now())
			})
		})
	})

	t.Run("core-sharing", func(t *testing.T) {
		cfg := base
		cfg.OSQuantum = 30_000
		runBoth(t, "core-sharing", cfg, func(e *Engine, logf func(string, ...interface{})) {
			for i := 0; i < 3; i++ {
				i := i
				e.Spawn("w", []int{0}, func(th *Thread) {
					for j := 0; j < 2000; j++ {
						th.Tick(uint64(100 + i*13))
					}
					logf("w%d done at %d cpu %d", i, th.Now(), th.CPU())
				})
			}
		})
	})

	t.Run("sleep-fleet", func(t *testing.T) {
		runBoth(t, "sleep-fleet", base, func(e *Engine, logf func(string, ...interface{})) {
			for i := 0; i < 16; i++ {
				i := i
				e.Spawn("conn", []int{i % 2}, func(th *Thread) {
					for j := 0; j < 50; j++ {
						th.Tick(uint64(20 + (i*31+j*7)%111))
						th.Sleep(uint64(5_000 + (i*997+j*131)%9_000))
					}
					logf("conn%d done at %d", i, th.Now())
				})
			}
		})
	})

	t.Run("events", func(t *testing.T) {
		runBoth(t, "events", base, func(e *Engine, logf func(string, ...interface{})) {
			ev := e.NewEvent()
			queued := 0
			for i := 0; i < 4; i++ {
				i := i
				e.Spawn("consumer", nil, func(th *Thread) {
					for k := 0; k < 20; k++ {
						ev.WaitUntil(th, func() bool { return queued > 0 })
						queued--
						th.Tick(uint64(300 + i*17))
						logf("consumer%d item %d at %d", i, k, th.Now())
					}
				})
			}
			e.Spawn("producer", []int{1}, func(th *Thread) {
				for k := 0; k < 80; k++ {
					th.Tick(1_000)
					queued++
					ev.Broadcast(th)
				}
				logf("producer done at %d", th.Now())
			})
		})
	})

	t.Run("spawn-tree", func(t *testing.T) {
		runBoth(t, "spawn-tree", base, func(e *Engine, logf func(string, ...interface{})) {
			e.Spawn("root", []int{0}, func(th *Thread) {
				for i := 0; i < 4; i++ {
					i := i
					th.Tick(10_000)
					e.Spawn("child", []int{(i + 1) % 2}, func(ch *Thread) {
						logf("child%d starts at %d", i, ch.Now())
						for j := 0; j < 100; j++ {
							ch.Tick(uint64(50 + j))
						}
					})
				}
				th.Tick(100_000)
				logf("root done at %d", th.Now())
			})
		})
	})

	t.Run("migration", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Cores = 3
		cfg.OSQuantum = 8_000
		runBoth(t, "migration", cfg, func(e *Engine, logf func(string, ...interface{})) {
			e.Spawn("hog", []int{0}, func(th *Thread) {
				for i := 0; i < 3000; i++ {
					th.Tick(900)
				}
			})
			for i := 0; i < 2; i++ {
				i := i
				e.Spawn("migrant", []int{0, 1, 2}, func(th *Thread) {
					for j := 0; j < 2000; j++ {
						th.Tick(uint64(700 + i*101))
						if j%500 == 0 {
							logf("migrant%d on core %d at %d", i, th.CoreID(), th.Now())
						}
					}
				})
			}
		})
	})

	t.Run("yield", func(t *testing.T) {
		runBoth(t, "yield", base, func(e *Engine, logf func(string, ...interface{})) {
			e.Spawn("t", []int{0}, func(th *Thread) {
				for i := 0; i < 300; i++ {
					th.Tick(1_000)
					if i%50 == 0 {
						th.Yield()
						logf("t resumed at %d", th.Now())
					}
				}
			})
			e.Spawn("peer", []int{0}, func(th *Thread) {
				for i := 0; i < 300; i++ {
					th.Tick(1_000)
				}
			})
		})
	})

	t.Run("ctx-switch", func(t *testing.T) {
		// OS-preemption rotation with migration across both cores.
		cfg := base
		cfg.OSQuantum = 20_000
		runBoth(t, "ctx-switch", cfg, func(e *Engine, logf func(string, ...interface{})) {
			for i := 0; i < 3; i++ {
				i := i
				e.Spawn("w", []int{0, 1}, func(th *Thread) {
					for j := 0; j < 1500; j++ {
						th.Tick(uint64(400 + i*29))
					}
					logf("w%d done at %d cpu %d", i, th.Now(), th.CPU())
				})
			}
		})
	})

	t.Run("wake-ties", func(t *testing.T) {
		// Sleepers whose deadlines coincide with queue heads' ready times:
		// the (time, id) tie-break decides whether a sleeper wakes before
		// or after a head's slice runs, and a sleeper free to run on
		// either core is placed on whichever core is then behind.
		cfg := base
		cfg.SkewQuantum = 1_000
		runBoth(t, "wake-ties", cfg, func(e *Engine, logf func(string, ...interface{})) {
			for c := 0; c < 2; c++ {
				e.Spawn("hog", []int{c}, func(th *Thread) {
					for i := 0; i < 60; i++ {
						th.Tick(1_000)
					}
				})
			}
			for i := 0; i < 2; i++ {
				i := i
				e.Spawn("sleeper", nil, func(th *Thread) {
					for j := 0; j < 40; j++ {
						th.Sleep(1_000 - th.Now()%1_000)
						logf("sleeper%d woke on core %d at %d", i, th.CoreID(), th.Now())
						th.Tick(uint64(10 + 30*i))
					}
				})
			}
		})
	})

	t.Run("deadlock", func(t *testing.T) {
		runBoth(t, "deadlock", base, func(e *Engine, logf func(string, ...interface{})) {
			ev := e.NewEvent()
			e.Spawn("stuck", []int{0}, func(th *Thread) {
				th.Tick(100)
				ev.Wait(th)
			})
			e.Spawn("other", []int{1}, func(th *Thread) {
				th.Tick(5_000)
				logf("other done at %d", th.Now())
			})
		})
	})

	t.Run("random-storm", func(t *testing.T) {
		// A randomized mix of every primitive, deterministic by seed: the
		// broadest single net for divergence between the schedulers. Each
		// seed runs at the default skew window and at the tight one the
		// fault-injection campaigns use, where slice expiries — the point
		// the inline scheduler continues without a handoff — are densest.
		for _, skew := range []uint64{DefaultConfig().SkewQuantum, 2_000} {
			for seed := int64(1); seed <= 4; seed++ {
				skew, seed := skew, seed
				t.Run(fmt.Sprintf("skew=%d/seed=%d", skew, seed), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Cores = 4
					cfg.OSQuantum = 25_000
					cfg.SkewQuantum = skew
					var stws, spawns, done int
					runBoth(t, t.Name(), cfg, func(e *Engine, logf func(string, ...interface{})) {
						randomStorm(e, seed, func(format string, args ...interface{}) {
							switch {
							case strings.Contains(format, "stopped the world"):
								stws++
							case strings.HasPrefix(format, "worker"):
								spawns++
							case strings.HasPrefix(format, "storm"):
								done++
							}
							logf(format, args...)
						})
					})
					// Both runs must finish every storm thread (a deadlock in
					// both would compare equal) and exercise the rendezvous
					// and the respawns.
					if done != 2*12 || stws == 0 || spawns == 0 {
						t.Fatalf("storm degenerate: %d threads finished, %d stop-the-worlds, %d workers over both runs",
							done, stws, spawns)
					}
				})
			}
		}
	})
}

// randomStorm spawns a dozen threads running seeded random mixes of every
// scheduling pattern the simulator's clients produce: ticks, sleeps,
// yields, event broadcasts and waits, mid-run spawns of short-lived
// workers on the spawner's cores (the revoker respawning a crashed sweep
// worker), and a two-event stop-the-world rendezvous in the style of
// kernel.Process.StopTheWorld — the initiator WaitUntils every peer
// stopped, and peers park on a resume event until it releases them.
func randomStorm(e *Engine, seed int64, logf func(string, ...interface{})) {
	ev := e.NewEvent()
	pending := 0

	// Stop-the-world state: a thread is stopped once parked, blocked,
	// sleeping or finished; one about to block, sleep or finish notifies
	// the initiator first, as kernel threads do at a safepoint.
	stwEv, resumeEv := e.NewEvent(), e.NewEvent()
	var initiator *Thread
	parked := map[*Thread]bool{}
	var storm []*Thread
	park := func(th *Thread) {
		for initiator != nil && initiator != th {
			parked[th] = true
			stwEv.Broadcast(th)
			resumeEv.Wait(th)
			parked[th] = false
		}
	}
	quiesce := func(th *Thread) {
		if initiator != nil && initiator != th {
			stwEv.Broadcast(th)
		}
	}
	stopped := func() bool {
		for _, th := range storm {
			if th == initiator || parked[th] {
				continue
			}
			switch th.State() {
			case Blocked, Sleeping, Finished:
			default:
				return false
			}
		}
		return true
	}
	stopTheWorld := func(th *Thread, rng *rand.Rand) {
		initiator = th
		for range storm {
			th.Tick(uint64(50 + rng.Intn(100))) // per-thread stop cost
		}
		stwEv.WaitUntil(th, stopped)
		logf("%s stopped the world at %d", th.Name(), th.Now())
		th.Tick(uint64(1 + rng.Intn(30_000))) // work with the world stopped
		initiator = nil
		resumeEv.Broadcast(th)
	}

	spawned := 0
	for i := 0; i < 12; i++ {
		i := i
		rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
		aff := []int{i % 4}
		if i%3 == 0 {
			aff = nil // any core
		}
		storm = append(storm, e.Spawn(fmt.Sprintf("storm%d", i), aff, func(th *Thread) {
			for j := 0; j < 400; j++ {
				park(th)
				switch rng.Intn(9) {
				case 0:
					th.Tick(uint64(rng.Intn(3000)))
				case 1:
					quiesce(th)
					th.Sleep(uint64(1 + rng.Intn(20_000)))
				case 2:
					th.Yield()
				case 3:
					pending++
					ev.Broadcast(th)
					th.Tick(50)
				case 4:
					if pending > 0 {
						for pending == 0 {
							quiesce(th)
							ev.Wait(th)
						}
						pending--
					}
					th.Tick(10)
				case 5:
					if rng.Intn(8) == 0 {
						stopTheWorld(th, rng)
					}
				case 6:
					if spawned < 24 && rng.Intn(4) == 0 {
						spawned++
						k, n := spawned, 1+rng.Intn(40)
						e.Spawn(fmt.Sprintf("worker%d", k), aff, func(w *Thread) {
							for m := 0; m < n; m++ {
								w.Tick(uint64(100 + m*17))
							}
							logf("worker%d done at %d", k, w.Now())
						})
					}
					th.Tick(20)
				default:
					th.Tick(uint64(rng.Intn(200)))
				}
			}
			quiesce(th)
			pending++ // unblock any residual waiters' predicates
			ev.Broadcast(th)
			logf("storm%d done at %d cpu %d", i, th.Now(), th.CPU())
		}))
	}
}

// TestConservationUnderMigrationStress is the multi-core migration stress
// of the test-coverage satellite: unpinned threads migrating across four
// cores under a small OS quantum, with sleeps and wakes mixed in, must
// deliver observer streams whose per-core busy + idle equals each core's
// clock exactly — under both schedulers.
func TestConservationUnderMigrationStress(t *testing.T) {
	for _, s := range schedulers {
		s := s
		t.Run(s.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Cores = 4
			cfg.OSQuantum = 9_000
			e := s.new(cfg)
			obs := newRecObs()
			e.SetClockObserver(obs)
			ev := e.NewEvent()
			ready := 0
			for i := 0; i < 10; i++ {
				i := i
				e.Spawn("mig", nil, func(th *Thread) {
					for j := 0; j < 1200; j++ {
						th.Tick(uint64(300 + (i*53+j*11)%700))
						switch j % 97 {
						case 13:
							th.Sleep(uint64(2_000 + i*301))
						case 41:
							ready++
							ev.Broadcast(th)
						case 71:
							ev.WaitUntil(th, func() bool { return ready > 0 })
							ready--
						}
					}
					ready += 1000 // release any waiters at exit
					ev.Broadcast(th)
				})
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			var cpu uint64
			for i := 0; i < cfg.Cores; i++ {
				if got, want := obs.coreTotal(i), e.CoreClock(i); got != want {
					t.Errorf("core %d: busy+idle = %d, clock = %d", i, got, want)
				}
			}
			for k, v := range obs.busy {
				_ = k
				cpu += v
			}
			if cpu != e.TotalCPU() {
				t.Errorf("observer busy sum %d != TotalCPU %d", cpu, e.TotalCPU())
			}
		})
	}
}
