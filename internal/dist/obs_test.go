package dist

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

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
