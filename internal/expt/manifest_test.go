package expt

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
)

// testMeta is the header the tests' manifests carry.
var testMeta = ManifestMeta{Tool: "sweep", Grid: "g"}

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.jsonl")
	m, err := OpenManifestFor(path, testMeta)
	if err != nil {
		t.Fatal(err)
	}
	j := fakeJob("omnetpp", 7)
	want := fakeResult(j)
	want.LatCycles = []float64{1.5, 2.25, 1e9 + 0.125}
	if err := m.Record(j.Key(), want, 1500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := OpenManifestFor(path, testMeta)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m2.Len())
	}
	got, host, ok := m2.Lookup(j.Key())
	if !ok {
		t.Fatal("recorded job missing after reload")
	}
	if host != 1500*time.Millisecond {
		t.Fatalf("host = %v after reload, want 1.5s (host_ms must round-trip)", host)
	}
	if got.Workload != want.Workload || got.Seed != want.Seed || got.WallCycles != want.WallCycles {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	for i, v := range want.LatCycles {
		if got.LatCycles[i] != v {
			t.Fatalf("LatCycles[%d] = %v, want %v (float64 must round-trip exactly)", i, got.LatCycles[i], v)
		}
	}
}

func TestManifestSkipsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.jsonl")
	m, err := OpenManifestFor(path, testMeta)
	if err != nil {
		t.Fatal(err)
	}
	j := fakeJob("astar", 1)
	if err := m.Record(j.Key(), fakeResult(j), time.Second); err != nil {
		t.Fatal(err)
	}
	m.Close()
	// Simulate an interrupt mid-append: a truncated second line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"deadbeef","result":{"workload":"tru`)
	f.Close()

	m2, err := OpenManifestFor(path, testMeta)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.Len() != 1 {
		t.Fatalf("Len = %d after torn tail, want 1", m2.Len())
	}
	if _, _, ok := m2.Lookup(j.Key()); !ok {
		t.Fatal("intact line lost")
	}
	if _, _, ok := m2.Lookup("deadbeef"); ok {
		t.Fatal("torn line surfaced as a result")
	}
}

// TestReadManifestMissingFails pins that the read-only loader refuses a
// missing path and leaves no file behind: a postmortem of the wrong path
// must fail, not render an empty campaign.
func TestReadManifestMissingFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing.jsonl")
	if _, err := ReadManifest(path); err == nil {
		t.Fatal("ReadManifest of a missing path succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("ReadManifest created %s (stat err %v)", path, err)
	}
}

// TestReadManifestLeavesTornFileUntouched reads a manifest whose last
// line is still being written, as a live campaign's is mid-Record: the
// intact entries load, the torn line is skipped, and the file's bytes
// are unchanged — the writer's next append must still land after them.
func TestReadManifestLeavesTornFileUntouched(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.jsonl")
	m, err := OpenManifestFor(path, testMeta)
	if err != nil {
		t.Fatal(err)
	}
	j := fakeJob("astar", 1)
	if err := m.Record(j.Key(), fakeResult(j), time.Second); err != nil {
		t.Fatal(err)
	}
	m.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"deadbeef","result":{"workload":"tru`)
	f.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	entries, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Key != j.Key() || !entries[0].Cached || entries[0].Host != time.Second {
		t.Fatalf("entries = %+v, want the one intact job", entries)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatalf("ReadManifest rewrote the manifest: %d bytes before, %d after", len(before), len(after))
	}
}

// TestPoolResumesFromManifest is the interrupt/resume scenario: a first
// sweep completes some jobs, a second sweep (fresh pool, reloaded manifest)
// serves those from disk and only runs the new work.
func TestPoolResumesFromManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.jsonl")
	jobs := []Job{fakeJob("astar", 1), fakeJob("omnetpp", 2), fakeJob("xalancbmk", 3)}

	var runs atomic.Int64
	countingRun := func(j Job) (*JobResult, time.Duration, error) {
		runs.Add(1)
		return fakeResult(j), 0, nil
	}

	// First sweep: completes the first two jobs, then is "interrupted".
	m1, err := OpenManifestFor(path, testMeta)
	if err != nil {
		t.Fatal(err)
	}
	p1 := NewPool(PoolConfig{Workers: 2, Manifest: m1})
	p1.run = countingRun
	for _, j := range jobs[:2] {
		if _, err := p1.Get(j); err != nil {
			t.Fatal(err)
		}
	}
	m1.Close()
	if got := runs.Load(); got != 2 {
		t.Fatalf("first sweep ran %d jobs, want 2", got)
	}

	// Second sweep over the full grid: the two recorded jobs come from the
	// manifest, only the third runs.
	m2, err := OpenManifestFor(path, testMeta)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	p2 := NewPool(PoolConfig{Workers: 2, Manifest: m2})
	p2.run = countingRun
	p2.Prefetch(jobs)
	for _, j := range jobs {
		r, err := p2.Get(j)
		if err != nil {
			t.Fatal(err)
		}
		if r.Seed != j.Cfg.Seed {
			t.Fatalf("seed = %d, want %d", r.Seed, j.Cfg.Seed)
		}
	}
	if got := runs.Load(); got != 3 {
		t.Fatalf("total runs = %d, want 3 (resume must not recompute)", got)
	}
	st := p2.Stats()
	if st.Cached != 2 || st.Executed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if m2.Len() != 3 {
		t.Fatalf("manifest Len = %d, want 3 (new job recorded)", m2.Len())
	}
}

// TestPoolCachedJobsCarryRecordedHost pins the host-cost plumbing for
// manifest hits: a job served from the manifest must surface the original
// run's recorded wall time — in Results() and in the "cached" progress
// event feeding /jobs — instead of the ~0 it cost to look up.
func TestPoolCachedJobsCarryRecordedHost(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.jsonl")
	j := fakeJob("astar", 1)
	const recorded = 2500 * time.Millisecond
	m, err := OpenManifestFor(path, testMeta)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Record(j.Key(), fakeResult(j), recorded); err != nil {
		t.Fatal(err)
	}
	m.Close()

	m2, err := OpenManifestFor(path, testMeta)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	var events []journal.Event
	p := NewPool(PoolConfig{
		Workers:  1,
		Manifest: m2,
		Progress: func(ev journal.Event) { events = append(events, ev) },
	})
	p.run = func(Job) (*JobResult, time.Duration, error) {
		t.Fatal("cached job executed")
		return nil, 0, nil
	}
	if _, err := p.Get(j); err != nil {
		t.Fatal(err)
	}
	rs := p.Results()
	if len(rs) != 1 || !rs[0].Cached {
		t.Fatalf("Results() = %+v, want one cached completion", rs)
	}
	if rs[0].Host != recorded {
		t.Fatalf("cached Completed.Host = %v, want %v", rs[0].Host, recorded)
	}
	if len(events) != 1 || events[0].Status != "cached" {
		t.Fatalf("events = %+v, want one cached event", events)
	}
	if events[0].HostMS != float64(recorded.Milliseconds()) {
		t.Fatalf("cached event HostMS = %v, want %v", events[0].HostMS, recorded)
	}
}

// TestPoolManifestErrorIsJournaled pins that a manifest write failure is
// a manifest-error event, journaled (and valid) and seen by Progress,
// while the job itself still completes.
func TestPoolManifestErrorIsJournaled(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManifestFor(filepath.Join(dir, "m.jsonl"), testMeta)
	if err != nil {
		t.Fatal(err)
	}
	m.Close() // every Record now fails
	jpath := filepath.Join(dir, "j.jsonl")
	jnl, err := journal.Create(jpath, "sweep", "grid")
	if err != nil {
		t.Fatal(err)
	}
	var events []journal.Event
	p := NewPool(PoolConfig{
		Workers: 1, Manifest: m, Journal: jnl,
		Progress: func(ev journal.Event) { events = append(events, ev) },
	})
	p.run = func(j Job) (*JobResult, time.Duration, error) { return fakeResult(j), 0, nil }
	if _, err := p.Get(fakeJob("astar", 1)); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Kind != journal.KindManifestError || events[0].Err == "" ||
		events[1].Status != "ran" || events[1].Done != 1 || events[1].Total != 1 {
		t.Fatalf("progress events = %+v, want manifest-error then ran 1/1", events)
	}
	j, err := journal.Read(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, ev := range j.Events {
		kinds = append(kinds, ev.Kind)
	}
	want := []string{journal.KindJobSubmit, journal.KindJobStart, journal.KindManifestError, journal.KindJobResult}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("journal kinds = %v, want %v", kinds, want)
	}
}

func TestManifestMetaAdoptAndMatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.jsonl")
	meta := ManifestMeta{Tool: "sweep", Grid: "fig1,fig2 reps=3 seed=1"}
	m, err := OpenManifestFor(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Record("k1", &JobResult{Workload: "w", Seed: 1}, 0); err != nil {
		t.Fatal(err)
	}
	m.Close()

	// Same meta: reopens, and the cached result is served.
	m, err = OpenManifestFor(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := m.Lookup("k1"); !ok {
		t.Fatal("matching reopen lost the cached result")
	}
	if got := m.Meta(); got == nil || got.Grid != meta.Grid || got.Schema != ManifestSchema {
		t.Fatalf("Meta() = %+v", got)
	}
	m.Close()

	// Different grid: refused with a useful message.
	_, err = OpenManifestFor(path, ManifestMeta{Tool: "sweep", Grid: "fig3 reps=1 seed=9"})
	if err == nil {
		t.Fatal("grid mismatch accepted")
	}
	if !strings.Contains(err.Error(), "different run") || !strings.Contains(err.Error(), "fig3 reps=1 seed=9") {
		t.Fatalf("mismatch error unhelpful: %v", err)
	}
	// Different tool: also refused.
	if _, err := OpenManifestFor(path, ManifestMeta{Tool: "chaos", Grid: meta.Grid}); err == nil {
		t.Fatal("tool mismatch accepted")
	}
}

func TestManifestMetaRejectsLegacy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.jsonl")
	// A headerless manifest, as written before metadata headers existed.
	if err := os.WriteFile(path, []byte(`{"key":"k1","result":{"workload":"w"}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenManifestFor(path, testMeta); err == nil {
		t.Fatal("headerless non-empty manifest accepted")
	} else if !strings.Contains(err.Error(), "predates metadata headers") {
		t.Fatalf("legacy error unhelpful: %v", err)
	}
	// Legacy manifests still load through the read-only entry point.
	entries, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Key != "k1" {
		t.Fatalf("legacy read = %+v, want the one k1 result", entries)
	}
}

// TestManifestRepairsTornTailForAppend pins the crashed-writer recovery
// end to end: a manifest whose final line was torn mid-write (no
// terminating newline) must reopen cleanly AND keep appending cleanly.
// Without the open-time truncation, O_APPEND would glue the next record
// onto the torn tail, corrupting both lines and losing the new result on
// the following resume.
func TestManifestRepairsTornTailForAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.jsonl")
	meta := ManifestMeta{Tool: "sweep", Grid: "g"}
	m, err := OpenManifestFor(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	j1, j2 := fakeJob("astar", 1), fakeJob("omnetpp", 2)
	if err := m.Record(j1.Key(), fakeResult(j1), time.Second); err != nil {
		t.Fatal(err)
	}
	m.Close()

	// Crash mid-Record: a partial, newline-less line at EOF.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"` + j2.Key() + `","result":{"workl`)
	f.Close()

	m2, err := OpenManifestFor(path, meta)
	if err != nil {
		t.Fatalf("resume after torn tail: %v", err)
	}
	if m2.Len() != 1 {
		t.Fatalf("Len = %d after torn tail, want 1", m2.Len())
	}
	// The torn job re-runs and re-records; the append must land on a
	// clean line boundary.
	if err := m2.Record(j2.Key(), fakeResult(j2), time.Second); err != nil {
		t.Fatal(err)
	}
	m2.Close()

	m3, err := OpenManifestFor(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if m3.Len() != 2 {
		t.Fatalf("Len = %d after re-record, want 2 (append corrupted by torn tail?)", m3.Len())
	}
	for _, j := range []Job{j1, j2} {
		if _, _, ok := m3.Lookup(j.Key()); !ok {
			t.Fatalf("job %.12s lost", j.Key())
		}
	}
}

// TestManifestRepairsTornHeader covers the nastiest torn-tail variant: the
// writer crashed while writing the metadata header itself. The repair
// truncates the file back to empty and the next open adopts a fresh
// header instead of failing validation forever.
func TestManifestRepairsTornHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.jsonl")
	if err := os.WriteFile(path, []byte(`{"meta":{"schema":"cornucopia-manifest/v1","tool":"sw`), 0o644); err != nil {
		t.Fatal(err)
	}
	meta := ManifestMeta{Tool: "sweep", Grid: "g"}
	m, err := OpenManifestFor(path, meta)
	if err != nil {
		t.Fatalf("open over torn header: %v", err)
	}
	m.Close()
	m2, err := OpenManifestFor(path, meta)
	if err != nil {
		t.Fatalf("reopen after header adoption: %v", err)
	}
	m2.Close()
}

// TestManifestCompact pins rewrite-on-demand compaction: superseded
// duplicate keys are dropped, the newest entry survives, the header is
// preserved, and appends keep working on the compacted file.
func TestManifestCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.jsonl")
	meta := ManifestMeta{Tool: "sweep", Grid: "g"}
	m, err := OpenManifestFor(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	j1, j2, j3 := fakeJob("astar", 1), fakeJob("omnetpp", 2), fakeJob("sjeng", 3)
	stale := fakeResult(j1)
	stale.WallCycles = 1
	if err := m.Record(j1.Key(), stale, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := m.Record(j2.Key(), fakeResult(j2), time.Second); err != nil {
		t.Fatal(err)
	}
	// Supersede j1 (a reclaimed-lease re-run, say).
	if err := m.Record(j1.Key(), fakeResult(j1), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	dropped, err := m.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("Compact dropped %d, want 1", dropped)
	}
	// A second compaction has nothing to do.
	if dropped, err = m.Compact(); err != nil || dropped != 0 {
		t.Fatalf("second Compact = (%d, %v), want (0, nil)", dropped, err)
	}
	// The append handle must follow the rewritten file.
	if err := m.Record(j3.Key(), fakeResult(j3), time.Second); err != nil {
		t.Fatal(err)
	}
	m.Close()

	m2, err := OpenManifestFor(path, meta)
	if err != nil {
		t.Fatalf("reopen after compact: %v", err)
	}
	defer m2.Close()
	if m2.Len() != 3 {
		t.Fatalf("Len = %d after compact, want 3", m2.Len())
	}
	r, host, ok := m2.Lookup(j1.Key())
	if !ok || r.WallCycles == 1 || host != 2*time.Second {
		t.Fatalf("compaction kept the superseded entry: %+v host=%v ok=%v", r, host, ok)
	}
	// File now holds exactly header + 2 compacted keys + 1 post-compact append.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(b), "\n"); got != 4 {
		t.Fatalf("compacted file has %d lines, want 4 (header + 2 keys + 1 append)", got)
	}
}
