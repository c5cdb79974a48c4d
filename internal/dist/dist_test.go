package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/expt"
	"repro/internal/harness"
	"repro/internal/journal"
)

// testJob builds a distinct, cheap-to-hash job for protocol-mechanics
// tests; the workload is never instantiated when workers run injected
// fakes.
func testJob(name string, seed int64) expt.Job {
	cfg := harness.DefaultConfig()
	cfg.Seed = seed
	return expt.Job{
		Workload: expt.SpecWorkload(name),
		Cond:     harness.Condition{Name: "Reloaded"},
		Cfg:      cfg,
	}
}

// testResult is deterministic per job, so any worker computes the same
// answer — the property real jobs have.
func testResult(j expt.Job) *expt.JobResult {
	return &expt.JobResult{
		Workload:   j.Workload.Name,
		Condition:  j.Cond.Name,
		Seed:       j.Cfg.Seed,
		WallCycles: uint64(j.Cfg.Seed) * 100,
		HzGHz:      1.2,
	}
}

// startCoordinator builds and starts a coordinator on an ephemeral port.
func startCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	if cfg.Tool == "" {
		cfg.Tool = "sweep"
	}
	if cfg.Grid == "" {
		cfg.Grid = "dist-test"
	}
	c := NewCoordinator(cfg)
	if _, err := c.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// startWorker runs a worker against c with an injected run function,
// returning a channel that yields Run's error.
func startWorker(t *testing.T, c *Coordinator, wcfg WorkerConfig, run func(expt.Job) (*expt.JobResult, error)) (*Worker, <-chan error) {
	t.Helper()
	wcfg.Connect = c.Addr()
	if wcfg.HelloTimeout == 0 {
		wcfg.HelloTimeout = 5 * time.Second
	}
	w := NewWorker(wcfg)
	if run != nil {
		w.SetRun(run)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run() }()
	return w, done
}

func waitWorker(t *testing.T, done <-chan error, want error) {
	t.Helper()
	select {
	case err := <-done:
		if want == nil && err != nil {
			t.Fatalf("worker exited with %v", err)
		}
		if want != nil && err != want {
			t.Fatalf("worker exited with %v, want %v", err, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit after drain")
	}
}

// TestDistRunsJobsThroughWorkers is the basic happy path: a fleet of two
// workers drains a grid, the coordinator's pool dedupes and aggregates
// exactly as a local run would, and per-worker accounting balances.
func TestDistRunsJobsThroughWorkers(t *testing.T) {
	c := startCoordinator(t, Config{Pool: expt.PoolConfig{Workers: 4}})
	var runs atomic.Int64
	run := func(j expt.Job) (*expt.JobResult, error) {
		runs.Add(1)
		return testResult(j), nil
	}
	_, done1 := startWorker(t, c, WorkerConfig{Name: "alpha"}, run)
	_, done2 := startWorker(t, c, WorkerConfig{Name: "beta", Parallel: 2}, run)

	jobs := make([]expt.Job, 0, 6)
	for seed := int64(1); seed <= 6; seed++ {
		jobs = append(jobs, testJob("astar", seed))
	}
	c.Prefetch(jobs)
	c.Prefetch(jobs) // duplicate submission must dedupe, not re-lease
	for _, j := range jobs {
		r, err := c.Get(j)
		if err != nil {
			t.Fatal(err)
		}
		if r.Seed != j.Cfg.Seed || r.WallCycles != uint64(j.Cfg.Seed)*100 {
			t.Fatalf("job seed %d came back as seed %d", j.Cfg.Seed, r.Seed)
		}
	}
	c.Drain()
	waitWorker(t, done1, nil)
	waitWorker(t, done2, nil)

	if got := runs.Load(); got != 6 {
		t.Fatalf("workers ran %d jobs, want 6 (dedup must hold across the wire)", got)
	}
	st := c.Stats()
	// 6 distinct jobs; the second Prefetch and the six Gets are all dups.
	if st.Submitted != 6 || st.Executed != 6 || st.Deduped != 12 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if rs := c.Results(); len(rs) != 6 {
		t.Fatalf("Results returned %d jobs", len(rs))
	}
	var leases, results uint64
	for _, w := range c.Fleet().Workers {
		if w.Inflight != 0 {
			t.Fatalf("worker %s still holds %d leases after drain", w.ID, w.Inflight)
		}
		if w.Failures != 0 || w.Reclaims != 0 {
			t.Fatalf("worker %s recorded failures/reclaims: %+v", w.ID, w)
		}
		leases += w.Leases
		results += w.Jobs
	}
	if leases != 6 || results != 6 {
		t.Fatalf("fleet accounting: %d leases, %d results, want 6/6", leases, results)
	}
}

// TestDistHostCostIsWorkerReported pins that host_ms in the coordinator's
// records is the worker's run measurement, not queue-inclusive wall time:
// a job that waits minutes for a free worker must not book those minutes.
func TestDistHostCostIsWorkerReported(t *testing.T) {
	c := startCoordinator(t, Config{Pool: expt.PoolConfig{Workers: 1}})
	_, done := startWorker(t, c, WorkerConfig{Name: "timed"}, func(j expt.Job) (*expt.JobResult, error) {
		time.Sleep(50 * time.Millisecond)
		return testResult(j), nil
	})
	if _, err := c.Get(testJob("astar", 1)); err != nil {
		t.Fatal(err)
	}
	c.Drain()
	waitWorker(t, done, nil)
	rs := c.Results()
	if len(rs) != 1 {
		t.Fatalf("got %d results", len(rs))
	}
	if rs[0].Host < 40*time.Millisecond || rs[0].Host > 5*time.Second {
		t.Fatalf("recorded host cost %v; want the worker's ~50ms measurement", rs[0].Host)
	}
}

// TestDistWorkerCrashMidLease kills a worker after it takes its first
// lease (no result, no heartbeats — a vanished process). The coordinator
// must reclaim the lease by heartbeat timeout, classify it as a timeout,
// and re-issue the job to the surviving worker; the campaign completes
// with every result intact.
func TestDistWorkerCrashMidLease(t *testing.T) {
	var mu sync.Mutex
	var events []journal.Event
	c := startCoordinator(t, Config{
		Heartbeat:     20 * time.Millisecond,
		HeartbeatMiss: 2,
		WaitMS:        10,
		Pool: expt.PoolConfig{
			Workers: 1, // one lease at a time: the crasher reliably gets the first
			Retries: 2,
			Progress: func(ev journal.Event) {
				mu.Lock()
				events = append(events, ev)
				mu.Unlock()
			},
		},
	})
	_, crashDone := startWorker(t, c, WorkerConfig{Name: "crasher", CrashAfterLease: 1}, nil)

	jobs := []expt.Job{testJob("astar", 1), testJob("astar", 2), testJob("astar", 3)}
	c.Prefetch(jobs)

	// Hold the survivor back until the crasher has died holding its lease,
	// so the reclaim path is guaranteed to be exercised.
	waitWorker(t, crashDone, ErrCrashed)
	_, done := startWorker(t, c, WorkerConfig{Name: "survivor"}, func(j expt.Job) (*expt.JobResult, error) {
		return testResult(j), nil
	})
	for _, j := range jobs {
		if _, err := c.Get(j); err != nil {
			t.Fatal(err)
		}
	}
	c.Drain()
	waitWorker(t, done, nil)

	st := c.Stats()
	if st.Retries == 0 {
		t.Fatalf("no retries recorded; the reclaimed lease should have retried (stats %+v)", st)
	}
	mu.Lock()
	defer mu.Unlock()
	var sawTimeout bool
	for _, ev := range events {
		if ev.Status == "retry" && ev.Err == "timeout" {
			sawTimeout = true
		}
	}
	if !sawTimeout {
		t.Fatalf("no retry event classified as timeout; events: %+v", events)
	}
	var reclaims uint64
	for _, w := range c.Fleet().Workers {
		reclaims += w.Reclaims
	}
	if reclaims == 0 {
		t.Fatal("no lease reclaim recorded in worker accounting")
	}
}

// TestDistErrClassNetworkPaths pins expt.ErrClass over the distributed
// failure modes: a worker panic must classify as a panic (not a generic
// error), a lease outliving LeaseTimeout as a timeout, and a worker that
// can never reach the coordinator must say so.
func TestDistErrClassNetworkPaths(t *testing.T) {
	t.Run("worker panic", func(t *testing.T) {
		c := startCoordinator(t, Config{Pool: expt.PoolConfig{Workers: 1}})
		_, done := startWorker(t, c, WorkerConfig{Name: "panicky"}, func(j expt.Job) (*expt.JobResult, error) {
			panic("tag map corrupted")
		})
		_, err := c.Get(testJob("astar", 1))
		if err == nil {
			t.Fatal("want error from panicking worker")
		}
		if cls := expt.ErrClass(err); !strings.HasPrefix(cls, "panic: ") || !strings.Contains(cls, "tag map corrupted") {
			t.Fatalf("ErrClass = %q, want worker panic surfaced", cls)
		}
		c.Drain()
		waitWorker(t, done, nil)
	})

	t.Run("lease timeout", func(t *testing.T) {
		c := startCoordinator(t, Config{
			LeaseTimeout: 40 * time.Millisecond,
			Heartbeat:    10 * time.Millisecond,
			Pool:         expt.PoolConfig{Workers: 1},
		})
		_, done := startWorker(t, c, WorkerConfig{Name: "wedged"}, func(j expt.Job) (*expt.JobResult, error) {
			time.Sleep(2 * time.Second) // heartbeats keep flowing; only LeaseTimeout can fire
			return testResult(j), nil
		})
		_, err := c.Get(testJob("astar", 1))
		if err == nil {
			t.Fatal("want error from expired lease")
		}
		if cls := expt.ErrClass(err); cls != "timeout" {
			t.Fatalf("ErrClass = %q, want timeout", cls)
		}
		c.Drain()
		waitWorker(t, done, nil)
	})

	t.Run("connection refused", func(t *testing.T) {
		w := NewWorker(WorkerConfig{
			Connect:      "127.0.0.1:1", // reserved port; nothing listens
			HelloTimeout: 50 * time.Millisecond,
		})
		err := w.Run()
		if err == nil {
			t.Fatal("want connection error")
		}
		if cls := expt.ErrClass(err); !strings.HasPrefix(cls, "error: ") || !strings.Contains(err.Error(), "unreachable") {
			t.Fatalf("ErrClass = %q (err %v), want a plain error naming the unreachable coordinator", cls, err)
		}
	})
}

// TestDistHelloValidation pins the up-front compatibility checks: wrong
// protocol versions are refused before they can lease anything, while a
// hello carrying fields this build does not know — such as the sweep
// kernel, sim engine and memory path capability lists older workers
// still announce — is accepted.
func TestDistHelloValidation(t *testing.T) {
	c := startCoordinator(t, Config{Pool: expt.PoolConfig{Workers: 1}})
	post := func(body []byte) HelloReply {
		t.Helper()
		resp, err := http.Post("http://"+c.Addr()+PathHello, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rep HelloReply
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	hello := func(h Hello) []byte {
		body, _ := json.Marshal(h)
		return body
	}

	if rep := post(hello(Hello{Proto: "cornucopia-dist/v0"})); rep.OK || !strings.Contains(rep.Reason, "protocol mismatch") {
		t.Fatalf("v0 hello accepted: %+v", rep)
	}

	if rep := post(hello(Hello{Proto: Proto, Name: "w"})); !rep.OK || rep.WorkerID == "" || rep.HeartbeatMS <= 0 {
		t.Fatalf("hello refused: %+v", rep)
	}

	older := []byte(`{"proto":"` + Proto + `","name":"old","sweep_kernels":["word","granule"],` +
		`"sim_engines":["fast","classic"],"mem_paths":["fast","flat"]}`)
	if rep := post(older); !rep.OK || rep.WorkerID == "" {
		t.Fatalf("hello with retired capability fields refused: %+v", rep)
	}

	// Leasing without a hello is a protocol violation, answered with 409.
	body, _ := json.Marshal(LeaseRequest{WorkerID: "w999"})
	resp, err := http.Post("http://"+c.Addr()+PathLease, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("lease without hello answered %s, want 409", resp.Status)
	}
}

// TestDistKeyVerification pins the schema-skew guard: a worker that
// derives a different key than the lease advertises must refuse to run
// the job.
func TestDistKeyVerification(t *testing.T) {
	c := startCoordinator(t, Config{Pool: expt.PoolConfig{Workers: 1, Retries: 0}})
	w := NewWorker(WorkerConfig{Connect: c.Addr(), HelloTimeout: 5 * time.Second})
	if err := w.hello(); err != nil {
		t.Fatal(err)
	}
	j := testJob("astar", 7)
	type leaseRes struct {
		res *expt.JobResult
		err error
	}
	got := make(chan leaseRes, 1)
	go func() {
		r, err := c.Get(j)
		got <- leaseRes{r, err}
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
	rep.Key = strings.Repeat("f", 64) // simulate disagreement about the job's identity
	w.execute(rep)
	out := <-got
	if out.err == nil {
		t.Fatal("key mismatch must fail the attempt")
	}
	if !strings.Contains(out.err.Error(), "schema skew") {
		t.Fatalf("err = %v, want schema-skew refusal", out.err)
	}
}

// realGrid is a tiny but genuinely-simulated campaign: one cheap chaos
// workload under baseline and one revocation condition, two seeds each.
func realGrid() []expt.Job {
	conds := []harness.Condition{harness.Baseline(), harness.StandardConditions()[0]}
	cfg := harness.DefaultConfig()
	var jobs []expt.Job
	for _, cond := range conds {
		for _, seed := range []int64{42, 43} {
			c := cfg
			c.Seed = seed
			jobs = append(jobs, expt.Job{Workload: expt.ChaosWorkload(120), Cond: cond, Cfg: c})
		}
	}
	return jobs
}

// runRealCampaign executes the grid on the given executor and returns the
// canonicalized document bytes.
func runRealCampaign(t *testing.T, ex expt.Executor, workers int) []byte {
	t.Helper()
	jobs := realGrid()
	ex.Prefetch(jobs)
	for _, j := range jobs {
		if _, err := ex.Get(j); err != nil {
			t.Fatal(err)
		}
	}
	doc := expt.BuildDocument(ex, nil, workers, 2, 1)
	doc.Canonicalize()
	doc.Workers = 0 // invocation shape differs across the compared runs by design
	var b bytes.Buffer
	if err := doc.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestDistDocumentsByteIdentical is the tentpole acceptance test: the
// same grid run locally, through one network worker, and through four
// network workers (plus one that crashes mid-lease) must produce
// byte-identical canonical documents.
func TestDistDocumentsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation campaign; skipped in -short")
	}
	local := expt.NewPool(expt.PoolConfig{Workers: 2})
	want := runRealCampaign(t, local, 2)

	for _, tc := range []struct {
		name    string
		fleet   int
		crasher bool
	}{
		{"one worker", 1, false},
		{"four workers", 4, false},
		{"crash mid-lease", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Pool: expt.PoolConfig{Workers: 2, Retries: 2}}
			if tc.crasher {
				cfg.Heartbeat = 20 * time.Millisecond
				cfg.HeartbeatMiss = 2
				cfg.WaitMS = 10
			}
			c := startCoordinator(t, cfg)
			var dones []<-chan error
			if tc.crasher {
				// Queue the grid, then let the crasher take the first lease
				// and die before the real workers join, forcing at least one
				// reclaim + re-run.
				c.Prefetch(realGrid())
				_, crashDone := startWorker(t, c, WorkerConfig{Name: "crasher", CrashAfterLease: 1}, nil)
				waitWorker(t, crashDone, ErrCrashed)
			}
			for i := 0; i < tc.fleet; i++ {
				_, done := startWorker(t, c, WorkerConfig{Name: fmt.Sprintf("w%d", i)}, nil)
				dones = append(dones, done)
			}
			got := runRealCampaign(t, c, 2)
			c.Drain()
			for _, done := range dones {
				waitWorker(t, done, nil)
			}
			if tc.crasher {
				if st := c.Stats(); st.Retries == 0 {
					t.Fatalf("crash variant recorded no retries (stats %+v)", st)
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("distributed document differs from local run:\nlocal:\n%s\ndist:\n%s", want, got)
			}
		})
	}
}
