package expt

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/revoke"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// fakeJob builds a distinct, cheap-to-hash job for pool-mechanics tests;
// the workload is never instantiated when the run function is injected.
func fakeJob(name string, seed int64) Job {
	cfg := harness.DefaultConfig()
	cfg.Seed = seed
	return Job{
		Workload: SpecWorkload(name),
		Cond:     harness.Condition{Name: "Reloaded"},
		Cfg:      cfg,
	}
}

// fakeResult returns a minimal result distinguishable by workload+seed.
func fakeResult(j Job) *JobResult {
	return &JobResult{
		Workload:   j.Workload.Name,
		Condition:  j.Cond.Name,
		Seed:       j.Cfg.Seed,
		WallCycles: uint64(j.Cfg.Seed) * 100,
		HzGHz:      1.2,
	}
}

func TestPoolDedupesByKey(t *testing.T) {
	var runs atomic.Int64
	p := NewPool(PoolConfig{Workers: 4})
	p.run = func(j Job) (*JobResult, time.Duration, error) {
		runs.Add(1)
		return fakeResult(j), 0, nil
	}
	j := fakeJob("omnetpp", 1)
	p.Prefetch([]Job{j, j, j})
	r, err := p.Get(j)
	if err != nil {
		t.Fatal(err)
	}
	if r.WallCycles != 100 {
		t.Fatalf("WallCycles = %d", r.WallCycles)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("job ran %d times, want 1", got)
	}
	st := p.Stats()
	if st.Submitted != 1 || st.Deduped != 3 || st.Executed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPoolRetriesThenSucceeds(t *testing.T) {
	var runs atomic.Int64
	p := NewPool(PoolConfig{Workers: 1, Retries: 2})
	p.run = func(j Job) (*JobResult, time.Duration, error) {
		if runs.Add(1) == 1 {
			return nil, 0, errors.New("transient")
		}
		return fakeResult(j), 0, nil
	}
	if _, err := p.Get(fakeJob("astar", 1)); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("attempts = %d, want 2", got)
	}
	st := p.Stats()
	if st.Retries != 1 || st.Executed != 1 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPoolExhaustsRetries(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1, Retries: 1})
	p.run = func(Job) (*JobResult, time.Duration, error) { return nil, 0, errors.New("permanent") }
	_, err := p.Get(fakeJob("astar", 1))
	if err == nil || !strings.Contains(err.Error(), "failed after 2 attempt(s)") {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "permanent") {
		t.Fatalf("err lost cause: %v", err)
	}
	if st := p.Stats(); st.Failed != 1 || st.Executed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPoolCapturesPanics(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1})
	p.run = func(Job) (*JobResult, time.Duration, error) { panic("boom") }
	_, err := p.Get(fakeJob("gobmk", 1))
	if err == nil || !strings.Contains(err.Error(), "panic: boom") {
		t.Fatalf("err = %v", err)
	}
}

// TestPoolCapturesSimThreadPanic runs a simulation whose thread panics
// through the pool's run seam: the panic reaches the pool's recover, the
// job fails after its retries, and the next job in the pool completes.
func TestPoolCapturesSimThreadPanic(t *testing.T) {
	var attempts atomic.Int64
	p := NewPool(PoolConfig{Workers: 1, Retries: 1})
	p.SetRun(func(j Job) (*JobResult, time.Duration, error) {
		e := sim.New(sim.DefaultConfig())
		e.Spawn("app", nil, func(th *sim.Thread) { th.Tick(100) })
		if j.Cfg.Seed == 1 {
			attempts.Add(1)
			e.Spawn("sweeper", nil, func(th *sim.Thread) {
				th.Tick(100)
				panic("boom")
			})
		}
		if err := e.Run(); err != nil {
			return nil, 0, err
		}
		return fakeResult(j), 0, nil
	})
	_, err := p.Get(fakeJob("astar", 1))
	if err == nil {
		t.Fatal("a panicking simulation succeeded")
	}
	if class := ErrClass(err); !strings.HasPrefix(class, "panic: ") || !strings.Contains(class, "sweeper") {
		t.Fatalf("ErrClass = %q, want a panic naming the thread", class)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("attempts = %d, want 2", got)
	}
	if st := p.Stats(); st.Failed != 1 || st.Retries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := p.Get(fakeJob("astar", 2)); err != nil {
		t.Fatalf("job after the panic: %v", err)
	}
	if st := p.Stats(); st.Executed != 1 || st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPoolTimesOut(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	p := NewPool(PoolConfig{Workers: 1, Timeout: 10 * time.Millisecond})
	p.run = func(j Job) (*JobResult, time.Duration, error) {
		<-release // simulates a stuck simulation; abandoned by the pool
		return fakeResult(j), 0, nil
	}
	_, err := p.Get(fakeJob("hmmer", 1))
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v", err)
	}
}

func TestPoolProgressEvents(t *testing.T) {
	var mu sync.Mutex
	var events []journal.Event
	p := NewPool(PoolConfig{
		Workers: 2,
		Progress: func(ev journal.Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	p.run = func(j Job) (*JobResult, time.Duration, error) { return fakeResult(j), 0, nil }
	jobs := []Job{fakeJob("astar", 1), fakeJob("omnetpp", 2)}
	p.Prefetch(jobs)
	for _, j := range jobs {
		if _, err := p.Get(j); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	for _, ev := range events {
		if ev.Status != "ran" || ev.Attempt != 1 || ev.Total != 2 {
			t.Fatalf("event = %+v", ev)
		}
	}
	if events[1].Done != 2 {
		t.Fatalf("final Done = %d", events[1].Done)
	}
}

func TestPoolResultsSortedAndComplete(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 4})
	p.run = func(j Job) (*JobResult, time.Duration, error) { return fakeResult(j), 0, nil }
	jobs := []Job{fakeJob("xalancbmk", 3), fakeJob("astar", 1), fakeJob("sjeng", 2)}
	p.Prefetch(jobs)
	for _, j := range jobs {
		if _, err := p.Get(j); err != nil {
			t.Fatal(err)
		}
	}
	rs := p.Results()
	if len(rs) != 3 {
		t.Fatalf("results = %d, want 3", len(rs))
	}
	for i := 1; i < len(rs); i++ {
		if rs[i-1].Key >= rs[i].Key {
			t.Fatalf("results not sorted: %q then %q", rs[i-1].Key, rs[i].Key)
		}
	}
}

func TestJobKeyStable(t *testing.T) {
	a, b := fakeJob("omnetpp", 1), fakeJob("omnetpp", 1)
	if a.Key() != b.Key() {
		t.Fatal("identical jobs hash differently")
	}
	if len(a.Key()) != 64 {
		t.Fatalf("key = %q, want 64 hex chars", a.Key())
	}
	c := fakeJob("omnetpp", 2)
	if a.Key() == c.Key() {
		t.Fatal("different seeds share a key")
	}
	d := fakeJob("astar", 1)
	if a.Key() == d.Key() {
		t.Fatal("different workloads share a key")
	}
	// The tracer only observes a run, so it never affects identity.
	e := fakeJob("omnetpp", 1)
	e.Cfg.Trace = trace.New(16)
	if a.Key() != e.Key() {
		t.Fatal("attaching a tracer changed the key")
	}
}

func TestPoolRetryEvents(t *testing.T) {
	var mu sync.Mutex
	var events []journal.Event
	var runs atomic.Int64
	p := NewPool(PoolConfig{Workers: 1, Retries: 2, Progress: func(ev journal.Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}})
	p.run = func(j Job) (*JobResult, time.Duration, error) {
		if runs.Add(1) < 3 {
			return nil, 0, errors.New("transient fault")
		}
		return fakeResult(j), 0, nil
	}
	if _, err := p.Get(fakeJob("xalancbmk", 1)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	var retries []journal.Event
	for _, ev := range events {
		if ev.Status == "retry" {
			retries = append(retries, ev)
		}
	}
	if len(retries) != 2 {
		t.Fatalf("want 2 retry events, got %d (%+v)", len(retries), events)
	}
	for i, ev := range retries {
		if ev.Attempt != i+1 {
			t.Fatalf("retry %d has Attempts %d", i, ev.Attempt)
		}
		if !strings.Contains(ev.Err, "transient fault") {
			t.Fatalf("retry event lost the error class: %+v", ev)
		}
	}
	last := events[len(events)-1]
	if last.Status != "ran" || last.Attempt != 3 || last.Err != "" {
		t.Fatalf("final event wrong: %+v", last)
	}
}

func TestPoolFailedEventCarriesErrClass(t *testing.T) {
	var mu sync.Mutex
	var events []journal.Event
	p := NewPool(PoolConfig{Workers: 1, Progress: func(ev journal.Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}})
	p.run = func(Job) (*JobResult, time.Duration, error) { panic("sweeper exploded") }
	if _, err := p.Get(fakeJob("xalancbmk", 2)); err == nil {
		t.Fatal("want failure")
	}
	mu.Lock()
	defer mu.Unlock()
	last := events[len(events)-1]
	if last.Status != "failed" {
		t.Fatalf("final event %+v", last)
	}
	if !strings.HasPrefix(last.Err, "panic: sweeper exploded") {
		t.Fatalf("failed event Err = %q, want panic class", last.Err)
	}
	if strings.Contains(last.Err, "\n") || len(last.Err) > 120 {
		t.Fatalf("panic class not compressed: %q", last.Err)
	}
}

func TestErrClass(t *testing.T) {
	if got := ErrClass(nil); got != "" {
		t.Fatalf("ErrClass(nil) = %q", got)
	}
	if got := ErrClass(errors.New("attempt timed out after 5s (simulation goroutines abandoned)")); got != "timeout" {
		t.Fatalf("timeout class = %q", got)
	}
	if got := ErrClass(errors.New("panic: boom\ngoroutine 1 [running]")); got != "panic: boom" {
		t.Fatalf("panic class = %q", got)
	}
	if got := ErrClass(errors.New("no such profile")); got != "error: no such profile" {
		t.Fatalf("error class = %q", got)
	}
}

// TestPoolProgressSerializedUnderConcurrency runs many jobs on many
// workers and checks the Progress contract: calls are serialized (never
// overlapping), completion events carry strictly increasing Done counts
// reaching Total, and retry events never count as completions. Run with
// -race to catch callback data races.
func TestPoolProgressSerializedUnderConcurrency(t *testing.T) {
	const n = 40
	var inCallback atomic.Int32
	var mu sync.Mutex
	var events []journal.Event
	var failedOnce sync.Map
	p := NewPool(PoolConfig{
		Workers: 8,
		Retries: 1,
		Progress: func(ev journal.Event) {
			if inCallback.Add(1) != 1 {
				t.Error("Progress callbacks overlap")
			}
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
			inCallback.Add(-1)
		},
	})
	p.run = func(j Job) (*JobResult, time.Duration, error) {
		// Every third job fails its first attempt so retry events mix in.
		if j.Cfg.Seed%3 == 0 {
			if _, loaded := failedOnce.LoadOrStore(j.Cfg.Seed, true); !loaded {
				return nil, 0, errors.New("transient")
			}
		}
		return fakeResult(j), 0, nil
	}
	var jobs []Job
	for i := 0; i < n; i++ {
		jobs = append(jobs, fakeJob("astar", int64(i+1)))
	}
	p.Prefetch(jobs)
	for _, j := range jobs {
		if _, err := p.Get(j); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	var done int
	for _, ev := range events {
		switch ev.Status {
		case "retry":
			if ev.Done != 0 {
				t.Errorf("retry event carries Done=%d", ev.Done)
			}
		case "ran":
			done++
			if ev.Done != done {
				t.Errorf("completion %d carries Done=%d (events out of order)", done, ev.Done)
			}
			if ev.Total != n {
				t.Errorf("Total = %d, want %d", ev.Total, n)
			}
		default:
			t.Errorf("unexpected status %q", ev.Status)
		}
	}
	if done != n {
		t.Errorf("saw %d completions, want %d", done, n)
	}
}

// telemetryExports renders every sweep-level telemetry export for a
// pool's completed jobs, the way cmd/sweep does.
func telemetryExports(t *testing.T, p *Pool) (folded, om, csv string) {
	t.Helper()
	var snaps []telemetry.Keyed
	for _, c := range p.Results() {
		if c.Result.Telem != nil {
			snaps = append(snaps, telemetry.Keyed{Key: c.Key, Snap: c.Result.Telem})
		}
	}
	merged := telemetry.Merge(snaps)
	var fb, ob, cb strings.Builder
	if err := merged.WriteFolded(&fb); err != nil {
		t.Fatal(err)
	}
	if err := merged.WriteOpenMetrics(&ob, true); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteSeriesCSV(&cb, snaps); err != nil {
		t.Fatal(err)
	}
	return fb.String(), ob.String(), cb.String()
}

// TestTelemetryExportsWorkerCountInvariant runs the same telemetry-armed
// job set at -workers 1 and 8 (real harness runs, tiny scale) and
// requires byte-identical folded, OpenMetrics, and series-CSV exports —
// the ISSUE's worker-invariance acceptance criterion at the pool layer.
func TestTelemetryExportsWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulator runs; skipped under -short")
	}
	jobs := func() []Job {
		var js []Job
		for _, name := range []string{"hmmer", "astar", "sjeng"} {
			j := fakeJob(name, 1)
			j.Cfg = harness.SpecConfig()
			j.Cfg.Scale = 2048
			j.Cfg.Seed = 1
			j.Cond = harness.Condition{
				Name: "Reloaded", Shimmed: true,
				Strategy: revoke.Reloaded, RevokerCores: []int{2}, Workers: 1,
			}
			js = append(js, j)
		}
		return js
	}
	run := func(workers int) (string, string, string) {
		p := NewPool(PoolConfig{
			Workers:   workers,
			Telemetry: &telemetry.Options{SampleEvery: 500_000},
		})
		js := jobs()
		p.Prefetch(js)
		for _, j := range js {
			if _, err := p.Get(j); err != nil {
				t.Fatal(err)
			}
		}
		return telemetryExports(t, p)
	}
	f1, o1, c1 := run(1)
	f8, o8, c8 := run(8)
	if f1 != f8 {
		t.Errorf("folded exports differ between -workers 1 and 8:\n%s\nvs\n%s", f1, f8)
	}
	if o1 != o8 {
		t.Errorf("OpenMetrics exports differ between -workers 1 and 8")
	}
	if c1 != c8 {
		t.Errorf("series CSV exports differ between -workers 1 and 8")
	}
	if !strings.Contains(f1, "app") || len(c1) == 0 {
		t.Errorf("exports look empty: folded=%q", f1)
	}
}
