package dist

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/expt"
	"repro/internal/journal"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// obsGrid returns the campaign description both observability runs share;
// the journal header pins it, exactly as a manifest header would.
const obsGrid = "obs-test trace-events=32"

func obsTelemetry() *telemetry.Options {
	return &telemetry.Options{SampleEvery: 1 << 20, TraceEvents: 32}
}

// runObsCampaign drives realGrid to completion on ex, closes the journal,
// and returns the canonicalized journal and timeline bytes.
func runObsCampaign(t *testing.T, ex expt.Executor, jnl *journal.Writer, path string) (jbytes, tbytes []byte) {
	t.Helper()
	jobs := realGrid()
	ex.Prefetch(jobs)
	for _, j := range jobs {
		if _, err := ex.Get(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Err(); err != nil {
		t.Fatalf("journal write error: %v", err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	j, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Validate(); err != nil {
		t.Fatalf("journal %s invalid: %v", path, err)
	}
	var jb bytes.Buffer
	if err := j.WriteCanonical(&jb); err != nil {
		t.Fatal(err)
	}

	// Timeline rows, attributed to workers the way cliflags.WriteTimeline
	// does it.
	var workers map[string]string
	if wm, ok := ex.(interface{ JobWorkers() map[string]string }); ok {
		workers = wm.JobWorkers()
	}
	rows := expt.TimelineJobs(ex.Results(), workers)
	var tb bytes.Buffer
	if err := trace.WriteTimeline(&tb, rows, true); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), tb.Bytes()
}

// TestObsByteIdentical is the observability acceptance test: the same
// seeded grid run on a local pool and distributed across a four-worker
// fleet must produce byte-identical canonical journals and canonical
// timelines — the host-side history differs (leases, worker attribution,
// wall clock), the simulated content must not.
func TestObsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation campaign; skipped in -short")
	}
	dir := t.TempDir()

	localPath := filepath.Join(dir, "local.jsonl")
	jnlLocal, err := journal.Create(localPath, "sweep", obsGrid)
	if err != nil {
		t.Fatal(err)
	}
	local := expt.NewPool(expt.PoolConfig{
		Workers: 2, Journal: jnlLocal, Telemetry: obsTelemetry(),
	})
	wantJ, wantT := runObsCampaign(t, local, jnlLocal, localPath)

	distPath := filepath.Join(dir, "dist.jsonl")
	jnlDist, err := journal.Create(distPath, "sweep", obsGrid)
	if err != nil {
		t.Fatal(err)
	}
	c := startCoordinator(t, Config{
		Grid: obsGrid,
		Pool: expt.PoolConfig{
			Workers: 4, Retries: 2, Journal: jnlDist, Telemetry: obsTelemetry(),
		},
	})
	var dones []<-chan error
	for i := 0; i < 4; i++ {
		_, done := startWorker(t, c, WorkerConfig{Name: fmt.Sprintf("w%d", i)}, nil)
		dones = append(dones, done)
	}
	gotJ, gotT := runObsCampaign(t, c, jnlDist, distPath)
	c.Drain()
	for _, done := range dones {
		waitWorker(t, done, nil)
	}

	if !bytes.Equal(gotJ, wantJ) {
		t.Errorf("canonical journal differs between local and distributed runs:\nlocal:\n%s\ndist:\n%s", wantJ, gotJ)
	}
	if !bytes.Equal(gotT, wantT) {
		t.Errorf("canonical timeline differs between local and distributed runs:\nlocal:\n%s\ndist:\n%s", wantT, gotT)
	}

	// The raw (non-canonical) distributed journal must carry the fleet
	// history the canonical form strips: joins, leases, worker reports.
	j, err := journal.Read(distPath)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, ev := range j.Events {
		kinds[ev.Kind]++
	}
	for _, want := range []string{
		journal.KindWorkerJoin, journal.KindJobLease, journal.KindJobReport,
		journal.KindJobSubmit, journal.KindJobResult,
	} {
		if kinds[want] == 0 {
			t.Errorf("distributed journal has no %s events (kinds: %v)", want, kinds)
		}
	}

	// Fleet accounting saw every worker and every job.
	fs := c.Fleet()
	if len(fs.Workers) != 4 {
		t.Fatalf("fleet rows = %d, want 4 (%+v)", len(fs.Workers), fs.Workers)
	}
	if int(fs.Jobs) != len(realGrid()) {
		t.Errorf("fleet jobs = %d, want %d", fs.Jobs, len(realGrid()))
	}
	if fs.SimCycles == 0 || fs.TraceEvents == 0 {
		t.Errorf("fleet aggregates empty: %+v", fs)
	}
}

// TestFleetViewFoldsCrashEvictionAndReplay pins the coordinator's one
// fleet view over a campaign that loses one worker to eviction and one to
// a crash, then finishes on a worker replaying its result cache: Fleet
// must show the evicted worker folded into the departed row, the
// crasher's reclaimed lease on its row, the replayed cache hits, and
// totals equal to the sum of the rows.
func TestFleetViewFoldsCrashEvictionAndReplay(t *testing.T) {
	c := startCoordinator(t, Config{
		Heartbeat:     20 * time.Millisecond,
		HeartbeatMiss: 2,
		WaitMS:        10,
		EvictAfter:    500 * time.Millisecond,
		Pool:          expt.PoolConfig{Workers: 1, Retries: 2},
	})
	run := func(j expt.Job) (*expt.JobResult, error) { return testResult(j), nil }

	// The ghost runs one job, exits and falls silent until it is evicted.
	_, ghostDone := startWorker(t, c, WorkerConfig{Name: "ghost", MaxJobs: 1}, run)
	if _, err := c.Get(testJob("astar", 1)); err != nil {
		t.Fatal(err)
	}
	waitWorker(t, ghostDone, nil)
	deadline := time.Now().Add(10 * time.Second)
	for c.Fleet().WorkersDeparted == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ghost never evicted: %+v", c.Fleet())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The crasher takes the next lease and dies holding it; the replayer
	// then serves every job, two of them from its cache.
	cachePath := filepath.Join(t.TempDir(), "cache.jsonl")
	m, err := expt.OpenManifestFor(cachePath, expt.ManifestMeta{Tool: "sweep", Grid: "dist-test"})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []expt.Job{testJob("astar", 2), testJob("astar", 3), testJob("astar", 4)}
	for _, j := range jobs[:2] {
		if err := m.Record(j.Key(), testResult(j), 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	c.Prefetch(jobs)
	_, crashDone := startWorker(t, c, WorkerConfig{Name: "crasher", CrashAfterLease: 1}, nil)
	waitWorker(t, crashDone, ErrCrashed)
	_, done := startWorker(t, c, WorkerConfig{Name: "replayer", CachePath: cachePath}, run)
	for _, j := range jobs {
		if _, err := c.Get(j); err != nil {
			t.Fatal(err)
		}
	}
	fs := c.Fleet()
	c.Drain()
	waitWorker(t, done, nil)

	rows := map[string]telemetry.FleetWorker{}
	var sum telemetry.FleetCounters
	for _, w := range fs.Workers {
		rows[w.Name] = w
		sum.Add(w.FleetCounters)
	}
	if fs.WorkersDeparted != 1 || fs.Departed.Jobs != 1 || fs.Departed.Leases != 1 {
		t.Fatalf("ghost not folded into the departed row: %d departed, %+v", fs.WorkersDeparted, fs.Departed)
	}
	if _, live := rows["ghost"]; live || len(fs.Workers) != 2 {
		t.Fatalf("live rows = %+v, want crasher and replayer", fs.Workers)
	}
	if cr := rows["crasher"]; cr.Leases != 1 || cr.Reclaims != 1 || cr.Jobs != 0 || cr.Inflight != 0 {
		t.Fatalf("crasher row = %+v, want its one lease reclaimed", cr)
	}
	if rp := rows["replayer"]; rp.Jobs != 3 || rp.CacheHits != 2 || rp.SimCycles != 900 {
		t.Fatalf("replayer row = %+v, want 3 jobs, 2 from cache, 900 cycles", rp)
	}
	sum.Add(fs.Departed)
	if sum != fs.FleetCounters {
		t.Fatalf("totals %+v are not the sum of the rows %+v", fs.FleetCounters, sum)
	}
}

// TestWorkerSelfViewCountsLikeCoordinator pins cmd/worker's /fleet
// self-view to the coordinator's accounting: a job run without telemetry
// still counts its simulated cycles, and a report the coordinator
// discards is not a job.
func TestWorkerSelfViewCountsLikeCoordinator(t *testing.T) {
	c := startCoordinator(t, Config{
		Heartbeat:     20 * time.Millisecond,
		HeartbeatMiss: 2,
		WaitMS:        10,
		Pool:          expt.PoolConfig{Workers: 1, Retries: 0},
	})
	w, done := startWorker(t, c, WorkerConfig{Name: "untraced", MaxJobs: 1},
		func(j expt.Job) (*expt.JobResult, error) { return testResult(j), nil })
	if _, err := c.Get(testJob("astar", 7)); err != nil {
		t.Fatal(err)
	}
	waitWorker(t, done, nil)
	if fs := w.Fleet(); fs.Jobs != 1 || fs.SimCycles != 700 {
		t.Fatalf("self-view = %+v, want 1 job of 700 simulated cycles", fs)
	}

	// A report for a lease the coordinator has already reclaimed.
	late := NewWorker(WorkerConfig{Connect: c.Addr(), HelloTimeout: 5 * time.Second})
	if err := late.hello(); err != nil {
		t.Fatal(err)
	}
	j := testJob("astar", 9)
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Get(j)
		errCh <- err
	}()
	var rep LeaseReply
	for rep.Status != StatusJob {
		if err := late.post(PathLease, LeaseRequest{WorkerID: late.id}, &rep); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case <-errCh:
	case <-time.After(10 * time.Second):
		t.Fatal("reclaim never fired")
	}
	late.report(ResultRequest{WorkerID: late.id, LeaseID: rep.LeaseID, Key: rep.Key, Result: testResult(j)})
	if fs := late.Fleet(); fs.Jobs != 0 || fs.Discards != 1 {
		t.Fatalf("self-view after a discarded report = %+v, want no job and 1 discard", fs)
	}
}
