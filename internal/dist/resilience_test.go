package dist

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist/netfault"
	"repro/internal/expt"
	"repro/internal/journal"
)

// TestNetfaultTransportFaultsAreSurvived runs a fake-execution campaign
// with every worker-side fault class armed at a rate that guarantees hits,
// and requires the campaign to complete with correct results anyway —
// the tentpole resilience property at protocol granularity.
func TestNetfaultTransportFaultsAreSurvived(t *testing.T) {
	c := startCoordinator(t, Config{
		Heartbeat:     20 * time.Millisecond,
		HeartbeatMiss: 3,
		WaitMS:        10,
		Pool:          expt.PoolConfig{Workers: 2, Retries: 4},
	})
	var runs atomic.Int64
	run := func(j expt.Job) (*expt.JobResult, error) {
		runs.Add(1)
		return testResult(j), nil
	}
	faults := &netfault.Spec{
		Seed:        11,
		Classes:     []string{"drop", "delay", "duplicate", "reorder", "reset", "throttle"},
		Rate:        0.25,
		Delay:       2 * time.Millisecond,
		MaxPerClass: 8,
	}
	_, done1 := startWorker(t, c, WorkerConfig{Name: "chaotic-a", Faults: faults}, run)
	_, done2 := startWorker(t, c, WorkerConfig{Name: "chaotic-b", Faults: faults}, run)

	jobs := make([]expt.Job, 0, 8)
	for seed := int64(1); seed <= 8; seed++ {
		jobs = append(jobs, testJob("astar", seed))
	}
	c.Prefetch(jobs)
	for _, j := range jobs {
		r, err := c.Get(j)
		if err != nil {
			t.Fatalf("job seed %d failed under faults: %v", j.Cfg.Seed, err)
		}
		if r.Seed != j.Cfg.Seed {
			t.Fatalf("job seed %d came back as %d", j.Cfg.Seed, r.Seed)
		}
	}
	c.Drain()
	waitWorker(t, done1, nil)
	waitWorker(t, done2, nil)
	if rs := c.Results(); len(rs) != 8 {
		t.Fatalf("Results returned %d jobs, want 8", len(rs))
	}
}

// loseFirstResult is a worker transport whose first result POST is lost
// before it reaches the coordinator; every other request goes through.
type loseFirstResult struct{ lost atomic.Bool }

func (l *loseFirstResult) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == PathResult && l.lost.CompareAndSwap(false, true) {
		return nil, errors.New("result POST lost")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestWorkerKeepsLeaseAliveUntilReported pins that a worker renews its
// lease until the result is delivered. The first result POST is lost, and
// the report's backoff-spaced retry (100-125 ms) outlasts the
// coordinator's heartbeat budget (20 ms x 3 misses), so only heartbeats
// sent while reporting keep the lease. The job must finish on its first
// attempt with no lease reclaimed.
func TestWorkerKeepsLeaseAliveUntilReported(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	jnl, err := journal.Create(path, "sweep", "dist-test")
	if err != nil {
		t.Fatal(err)
	}
	c := startCoordinator(t, Config{
		Heartbeat:     20 * time.Millisecond,
		HeartbeatMiss: 3,
		WaitMS:        10,
		Pool:          expt.PoolConfig{Workers: 1, Journal: jnl},
	})
	w := NewWorker(WorkerConfig{Connect: c.Addr(), Name: "lossy-report", HelloTimeout: 5 * time.Second})
	w.SetRun(func(j expt.Job) (*expt.JobResult, error) { return testResult(j), nil })
	lossy := &loseFirstResult{}
	w.client.Transport = lossy
	done := make(chan error, 1)
	go func() { done <- w.Run() }()

	if _, err := c.Get(testJob("astar", 1)); err != nil {
		t.Fatalf("job failed: %v", err)
	}
	c.Drain()
	waitWorker(t, done, nil)
	if !lossy.lost.Load() {
		t.Fatal("no result POST was lost; the test exercised nothing")
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	j, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	var results int
	for _, ev := range j.Events {
		switch ev.Kind {
		case journal.KindLeaseReclaim:
			t.Fatalf("lease reclaimed while its result was being delivered: %+v", ev)
		case journal.KindJobResult:
			results++
			if ev.Status != "ran" || ev.Attempt != 1 {
				t.Fatalf("job finished as %s on attempt %d, want ran on attempt 1", ev.Status, ev.Attempt)
			}
		}
	}
	if results != 1 {
		t.Fatalf("journal holds %d job results, want 1", results)
	}
}

// TestDistErrClassThroughNetfaultRetries is the satellite pin for error
// classification: with injected connection resets in the path, a worker
// panic must still classify as a panic, a dead lease as a timeout, and an
// unreachable coordinator as a plain connection error — netfault's own
// error strings must never masquerade as any of them.
func TestDistErrClassThroughNetfaultRetries(t *testing.T) {
	// One deterministic reset, spent on the first request (the opening
	// hello): the fault is guaranteed to fire in every case, and the lease
	// grant itself is never orphaned — so the error under test, not a
	// reclaim, is always what surfaces.
	resets := func(seed int64) *netfault.Spec {
		return &netfault.Spec{Seed: seed, Classes: []string{"reset"}, MaxPerClass: 1}
	}
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T) error // returns the attempt error to classify
		check func(t *testing.T, cls string, err error)
	}{
		{
			name: "worker panic survives resets",
			setup: func(t *testing.T) error {
				c := startCoordinator(t, Config{Pool: expt.PoolConfig{Workers: 1}})
				_, done := startWorker(t, c, WorkerConfig{Name: "panicky", Faults: resets(21)},
					func(j expt.Job) (*expt.JobResult, error) { panic("shadow map desynced") })
				_, err := c.Get(testJob("astar", 1))
				c.Drain()
				waitWorker(t, done, nil)
				return err
			},
			check: func(t *testing.T, cls string, err error) {
				if !strings.HasPrefix(cls, "panic: ") || !strings.Contains(cls, "shadow map desynced") {
					t.Fatalf("ErrClass = %q (err %v), want the worker panic", cls, err)
				}
			},
		},
		{
			name: "reclaimed lease classifies as timeout",
			setup: func(t *testing.T) error {
				c := startCoordinator(t, Config{
					Heartbeat:     20 * time.Millisecond,
					HeartbeatMiss: 2,
					WaitMS:        10,
					Pool:          expt.PoolConfig{Workers: 1},
				})
				// The worker crashes holding its lease; with resets in the
				// path the reclaim error must still say "timed out".
				_, crashDone := startWorker(t, c,
					WorkerConfig{Name: "crasher", CrashAfterLease: 1, Faults: resets(22)}, nil)
				errCh := make(chan error, 1)
				go func() {
					_, err := c.Get(testJob("astar", 2))
					errCh <- err
				}()
				defer waitWorker(t, crashDone, ErrCrashed)
				select {
				case err := <-errCh:
					return err
				case <-time.After(10 * time.Second):
					t.Fatal("reclaim never fired")
					return nil
				}
			},
			check: func(t *testing.T, cls string, err error) {
				if cls != "timeout" {
					t.Fatalf("ErrClass = %q (err %v), want timeout", cls, err)
				}
			},
		},
		{
			name: "connection refused stays a plain error",
			setup: func(t *testing.T) error {
				w := NewWorker(WorkerConfig{
					Connect:      "127.0.0.1:1", // reserved port; nothing listens
					HelloTimeout: 300 * time.Millisecond,
					Faults:       &netfault.Spec{Seed: 23, Classes: []string{"reset"}, MaxPerClass: 1},
					Backoff:      &expt.Backoff{Base: 10 * time.Millisecond, Factor: 2, Max: 50 * time.Millisecond},
				})
				return w.Run()
			},
			check: func(t *testing.T, cls string, err error) {
				if !strings.HasPrefix(cls, "error: ") || !strings.Contains(err.Error(), "unreachable") {
					t.Fatalf("ErrClass = %q (err %v), want a plain unreachable-coordinator error", cls, err)
				}
				if strings.Contains(cls, "timed out") || strings.Contains(cls, "panic") {
					t.Fatalf("netfault text leaked a sentinel into ErrClass %q", cls)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.setup(t)
			if err == nil {
				t.Fatal("want an error to classify")
			}
			tc.check(t, expt.ErrClass(err), err)
		})
	}
}

// TestDistReclaimRaceDiscardsLateResultOnce is the satellite pin for the
// heartbeat-timeout reclaim racing a late result: the reclaimed lease's
// result must be discarded (never double-resolving the attempt) and the
// discard must be counted exactly once.
func TestDistReclaimRaceDiscardsLateResultOnce(t *testing.T) {
	c := startCoordinator(t, Config{
		Heartbeat:     20 * time.Millisecond,
		HeartbeatMiss: 2,
		WaitMS:        10,
		Pool:          expt.PoolConfig{Workers: 1, Retries: 0},
	})
	w := NewWorker(WorkerConfig{Connect: c.Addr(), HelloTimeout: 5 * time.Second})
	if err := w.hello(); err != nil {
		t.Fatal(err)
	}
	j := testJob("astar", 9)
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Get(j)
		errCh <- err
	}()
	var rep LeaseReply
	for {
		if err := w.post(PathLease, LeaseRequest{WorkerID: w.id}, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Status == StatusJob {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Hold the lease silently (no heartbeats) until reclaim fires and the
	// attempt fails as a timeout.
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("attempt resolved without a result")
		}
		if cls := expt.ErrClass(err); cls != "timeout" {
			t.Fatalf("reclaim classified as %q, want timeout", cls)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reclaim never fired")
	}
	// Now the result arrives late. Exactly one discard; the resolved
	// attempt must not be disturbed.
	res := ResultRequest{WorkerID: w.id, LeaseID: rep.LeaseID, Key: rep.Key, Result: testResult(j)}
	var rr ResultReply
	if err := w.post(PathResult, res, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.OK {
		t.Fatal("late result for a reclaimed lease was accepted")
	}
	st := c.DistStats()
	if st.Discards != 1 {
		t.Fatalf("discards = %d, want exactly 1", st.Discards)
	}
	if st.Reclaims != 1 {
		t.Fatalf("reclaims = %d, want 1", st.Reclaims)
	}
}

// TestDistWorkerEviction is the satellite pin for fleet-view hygiene: a
// worker that joined, finished, and went silent must leave the /workers
// view after EvictAfter, with its counters folded into the departed
// aggregate rather than lost.
func TestDistWorkerEviction(t *testing.T) {
	c := startCoordinator(t, Config{
		Heartbeat:  10 * time.Millisecond,
		EvictAfter: 150 * time.Millisecond,
		Pool:       expt.PoolConfig{Workers: 1},
	})
	var runs atomic.Int64
	_, done := startWorker(t, c, WorkerConfig{Name: "ghost", MaxJobs: 1}, func(j expt.Job) (*expt.JobResult, error) {
		runs.Add(1)
		return testResult(j), nil
	})
	if _, err := c.Get(testJob("astar", 3)); err != nil {
		t.Fatal(err)
	}
	waitWorker(t, done, nil) // MaxJobs reached; the worker exits and goes silent
	if len(c.Workers()) != 1 {
		t.Fatalf("worker missing from live view before eviction: %+v", c.Workers())
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(c.Workers()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never evicted; live view %+v", c.Workers())
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := c.DistStats()
	if st.WorkersLive != 0 || st.WorkersDeparted != 1 {
		t.Fatalf("DistStats after eviction = %+v", st)
	}
	// The departed worker's work survives in the aggregate.
	c.mu.Lock()
	g := c.gone
	c.mu.Unlock()
	if g.results != 1 || g.leases != 1 {
		t.Fatalf("departed aggregate lost counters: %+v", g)
	}
}

// TestDistBreakerQuarantinesFlappingWorker pins the circuit breaker: a
// worker failing every job trips after BreakerFailures consecutive
// failures, sits out the cooldown, probes half-open, and closes again
// once it heals — and the campaign completes through the flap.
func TestDistBreakerQuarantinesFlappingWorker(t *testing.T) {
	c := startCoordinator(t, Config{
		Heartbeat:       20 * time.Millisecond,
		WaitMS:          10,
		BreakerFailures: 2,
		BreakerCooldown: 100 * time.Millisecond,
		Pool:            expt.PoolConfig{Workers: 1, Retries: 4},
	})
	var calls atomic.Int64
	_, done := startWorker(t, c, WorkerConfig{Name: "flapper"}, func(j expt.Job) (*expt.JobResult, error) {
		if calls.Add(1) <= 2 {
			return nil, fmt.Errorf("transient tag-cache corruption")
		}
		return testResult(j), nil
	})
	start := time.Now()
	r, err := c.Get(testJob("astar", 5))
	if err != nil {
		t.Fatalf("campaign failed through the flap: %v", err)
	}
	if r.Seed != 5 {
		t.Fatalf("wrong result %+v", r)
	}
	// The third attempt had to wait out the breaker cooldown.
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("healed in %v — the quarantine never held", elapsed)
	}
	c.Drain()
	waitWorker(t, done, nil)
	st := c.DistStats()
	if st.BreakerTrips == 0 {
		t.Fatalf("breaker never tripped: %+v", st)
	}
	ws := c.Workers()
	if len(ws) != 1 || ws[0].Breaker != BreakerClosed {
		t.Fatalf("healed worker's breaker = %+v, want closed", ws)
	}
}

// TestDistWorkerCacheReplay pins the worker-side result cache: a worker
// that rejoins a campaign (same tool/grid) with its cache file serves
// every completed key from cache — zero re-executions, results intact.
func TestDistWorkerCacheReplay(t *testing.T) {
	cachePath := filepath.Join(t.TempDir(), "worker-cache.jsonl")
	var runs atomic.Int64
	run := func(j expt.Job) (*expt.JobResult, error) {
		runs.Add(1)
		return testResult(j), nil
	}
	jobs := make([]expt.Job, 0, 4)
	for seed := int64(1); seed <= 4; seed++ {
		jobs = append(jobs, testJob("astar", seed))
	}

	// First campaign populates the cache.
	c1 := startCoordinator(t, Config{Pool: expt.PoolConfig{Workers: 2}})
	_, done1 := startWorker(t, c1, WorkerConfig{Name: "original", CachePath: cachePath}, run)
	for _, j := range jobs {
		if _, err := c1.Get(j); err != nil {
			t.Fatal(err)
		}
	}
	c1.Drain()
	waitWorker(t, done1, nil)
	if got := runs.Load(); got != 4 {
		t.Fatalf("first campaign ran %d jobs, want 4", got)
	}

	// The worker "rejoins" (a fresh process with the same cache file) a
	// fresh coordinator for the same campaign: every key replays.
	c2 := startCoordinator(t, Config{Pool: expt.PoolConfig{Workers: 2}})
	w2, done2 := startWorker(t, c2, WorkerConfig{Name: "rejoiner", CachePath: cachePath}, run)
	for _, j := range jobs {
		r, err := c2.Get(j)
		if err != nil {
			t.Fatal(err)
		}
		if r.Seed != j.Cfg.Seed || r.WallCycles != uint64(j.Cfg.Seed)*100 {
			t.Fatalf("cached replay corrupted job seed %d: %+v", j.Cfg.Seed, r)
		}
	}
	c2.Drain()
	waitWorker(t, done2, nil)
	if got := runs.Load(); got != 4 {
		t.Fatalf("rejoin re-executed: %d total runs, want the original 4", got)
	}
	if got := w2.CacheHits(); got != 4 {
		t.Fatalf("worker counted %d cache hits, want 4", got)
	}
	if st := c2.DistStats(); st.CacheHits != 4 {
		t.Fatalf("coordinator counted %d cache hits, want 4 (stats %+v)", st.CacheHits, st)
	}
}

// TestDistCacheRefusesForeignGrid pins the cache's safety valve: a cache
// written for one campaign must not be replayed into another — the worker
// logs, drops the cache, and runs everything fresh.
func TestDistCacheRefusesForeignGrid(t *testing.T) {
	cachePath := filepath.Join(t.TempDir(), "worker-cache.jsonl")
	m, err := expt.OpenManifestFor(cachePath, expt.ManifestMeta{Tool: "sweep", Grid: "some-other-grid"})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()

	c := startCoordinator(t, Config{Pool: expt.PoolConfig{Workers: 1}})
	var runs atomic.Int64
	_, done := startWorker(t, c, WorkerConfig{Name: "mismatched", CachePath: cachePath},
		func(j expt.Job) (*expt.JobResult, error) {
			runs.Add(1)
			return testResult(j), nil
		})
	if _, err := c.Get(testJob("astar", 1)); err != nil {
		t.Fatal(err)
	}
	c.Drain()
	waitWorker(t, done, nil)
	if runs.Load() != 1 {
		t.Fatalf("ran %d jobs, want 1 fresh execution (foreign cache must be ignored)", runs.Load())
	}
	if st := c.DistStats(); st.CacheHits != 0 {
		t.Fatalf("foreign cache produced %d hits", st.CacheHits)
	}
}

// TestDistLocalFallbackWhenFleetEmpty pins the last-resort degraded mode:
// with jobs queued, no leases outstanding, and no worker contact past the
// deadline, the coordinator runs the queue itself.
func TestDistLocalFallbackWhenFleetEmpty(t *testing.T) {
	c := startCoordinator(t, Config{
		Heartbeat:     10 * time.Millisecond,
		LocalFallback: 60 * time.Millisecond,
		Pool:          expt.PoolConfig{Workers: 2},
	})
	var localRuns atomic.Int64
	c.SetLocalRun(func(j expt.Job) (*expt.JobResult, time.Duration, error) {
		localRuns.Add(1)
		return testResult(j), 3 * time.Millisecond, nil
	})
	jobs := []expt.Job{testJob("astar", 1), testJob("astar", 2), testJob("astar", 3)}
	c.Prefetch(jobs)
	for _, j := range jobs {
		r, err := c.Get(j)
		if err != nil {
			t.Fatalf("fallback failed job seed %d: %v", j.Cfg.Seed, err)
		}
		if r.Seed != j.Cfg.Seed {
			t.Fatalf("fallback corrupted job seed %d: %+v", j.Cfg.Seed, r)
		}
	}
	if got := localRuns.Load(); got != 3 {
		t.Fatalf("local fallback ran %d jobs, want 3", got)
	}
	st := c.DistStats()
	if st.FallbackRuns != 3 {
		t.Fatalf("FallbackRuns = %d, want 3 (stats %+v)", st.FallbackRuns, st)
	}
}

// TestDistDocumentsByteIdenticalUnderNetChaos is the tentpole acceptance
// test for the cornucopia-netchaos/v1 campaign mode: the same real
// simulation grid, run under every fault scenario, must produce canonical
// documents byte-identical to an undisturbed local run.
func TestDistDocumentsByteIdenticalUnderNetChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation campaign; skipped in -short")
	}
	local := expt.NewPool(expt.PoolConfig{Workers: 2})
	want := runRealCampaign(t, local, 2)

	type scenario struct {
		name    string
		worker  *netfault.Spec // worker-side faults (both workers)
		coord   *netfault.Spec // coordinator-side faults
		crasher bool
		// useCache runs the campaign twice on one worker carrying a result
		// cache file. It is the only worker: beside a cacheless one, the
		// lease race would decide which keys it sees on the rejoin, and the
		// cache-hit count would depend on goroutine timing.
		useCache bool
	}
	for _, sc := range []scenario{
		{
			name:    "drop+crash",
			worker:  &netfault.Spec{Seed: 31, Classes: []string{"drop"}, Rate: 0.3, MaxPerClass: 10},
			crasher: true,
		},
		{
			name: "delay+duplicate+reorder",
			worker: &netfault.Spec{Seed: 32, Classes: []string{"delay", "duplicate", "reorder"},
				Rate: 0.4, Delay: 2 * time.Millisecond, MaxPerClass: 10},
		},
		{
			name: "reset+throttle",
			worker: &netfault.Spec{Seed: 33, Classes: []string{"reset", "throttle"},
				Rate: 0.3, Delay: 2 * time.Millisecond, MaxPerClass: 10},
		},
		{
			name:  "coordinator partition",
			coord: &netfault.Spec{Seed: 34, Classes: []string{"partition"}, PartitionFrac: 1, MaxPerClass: 6},
		},
		{
			name:     "rejoin replays cache",
			useCache: true,
		},
	} {
		t.Run(sc.name, func(t *testing.T) {
			runOnce := func(cachePath string) ([]byte, *Coordinator) {
				cfg := Config{
					Heartbeat:     20 * time.Millisecond,
					HeartbeatMiss: 3,
					WaitMS:        10,
					Faults:        sc.coord,
					Pool:          expt.PoolConfig{Workers: 2, Retries: 4},
				}
				c := startCoordinator(t, cfg)
				if sc.crasher {
					c.Prefetch(realGrid())
					_, crashDone := startWorker(t, c, WorkerConfig{Name: "crasher", CrashAfterLease: 1}, nil)
					waitWorker(t, crashDone, ErrCrashed)
				}
				nworkers := 2
				if cachePath != "" {
					nworkers = 1
				}
				var dones []<-chan error
				for i := 0; i < nworkers; i++ {
					wcfg := WorkerConfig{Name: fmt.Sprintf("w%d", i), Faults: sc.worker, CachePath: cachePath}
					_, done := startWorker(t, c, wcfg, nil)
					dones = append(dones, done)
				}
				got := runRealCampaign(t, c, 2)
				c.Drain()
				for _, done := range dones {
					waitWorker(t, done, nil)
				}
				return got, c
			}
			if sc.useCache {
				cachePath := filepath.Join(t.TempDir(), "rejoin-cache.jsonl")
				first, _ := runOnce(cachePath)
				if !bytes.Equal(first, want) {
					t.Fatalf("cache-populating run differs from local:\n%s", first)
				}
				// The worker "rejoins" with the populated cache: identical
				// document, zero re-executions of cached keys.
				second, c2 := runOnce(cachePath)
				if !bytes.Equal(second, want) {
					t.Fatalf("rejoin run differs from local:\n%s", second)
				}
				if st := c2.DistStats(); st.CacheHits != uint64(len(realGrid())) {
					t.Fatalf("rejoin served %d of %d keys from cache (stats %+v)", st.CacheHits, len(realGrid()), st)
				}
				return
			}
			got, c := runOnce("")
			if !bytes.Equal(got, want) {
				t.Fatalf("scenario %s: distributed document differs from local run:\nlocal:\n%s\ndist:\n%s",
					sc.name, want, got)
			}
			if sc.coord != nil {
				if st := c.DistStats(); len(st.NetfaultInjections) == 0 {
					t.Fatalf("coordinator-side faults armed but nothing injected: %+v", st)
				}
			}
		})
	}
}
