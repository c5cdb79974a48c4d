package expt

import (
	"errors"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
)

// TestPlannerResolvesFigureGrids drives real figure builders against a
// Planner and checks the dry-run contract: every grid cell is recorded
// without anything executing, duplicate submissions merge exactly as the
// pool would merge them, and the listing is deterministic.
func TestPlannerResolvesFigureGrids(t *testing.T) {
	o := DefaultOptions()
	o.Reps = 2
	p := NewPlanner()
	for _, id := range []string{"fig5", "fig6"} {
		f, ok := ByID(id)
		if !ok {
			t.Fatalf("figure %s missing", id)
		}
		if _, err := f.Build(o, p); err != nil {
			t.Fatalf("%s dry-run build: %v", id, err)
		}
	}
	jobs := p.Jobs()
	if len(jobs) == 0 {
		t.Fatal("planner recorded no jobs")
	}
	// fig5 and fig6 share the same pgbench grid (baseline + 4 conditions,
	// o.Reps seeds each): the union must dedupe to one figure's worth.
	want := 5 * o.Reps
	if len(jobs) != want {
		t.Fatalf("planned %d distinct jobs, want %d (fig5 and fig6 grids must dedupe)", len(jobs), want)
	}
	st := p.Stats()
	if st.Submitted != want {
		t.Fatalf("Submitted = %d, want %d", st.Submitted, want)
	}
	if st.Deduped == 0 {
		t.Fatal("no duplicate submissions merged; fig6 should re-request fig5's cells")
	}
	if !sort.SliceIsSorted(jobs, func(i, j int) bool { return jobs[i].Key < jobs[j].Key }) {
		t.Fatal("Jobs() not sorted by key")
	}
	for _, j := range jobs {
		if len(j.Key) != 64 {
			t.Fatalf("job key %q is not a content hash", j.Key)
		}
		if j.Cond == "" {
			t.Fatalf("job %s lost its condition", j.Key[:12])
		}
	}
	var b strings.Builder
	if err := p.WriteGrid(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if got := strings.Count(out, "\n"); got != want+1 {
		t.Fatalf("grid listing has %d lines, want %d jobs + summary", got, want)
	}
	if !strings.Contains(out, "dry-run: ") {
		t.Fatalf("missing summary line:\n%s", out)
	}
	// Nothing may ever execute or complete.
	if rs := p.Results(); len(rs) != 0 {
		t.Fatalf("planner completed %d jobs", len(rs))
	}

	// Every figure must build through a planner, as `cmd/sweep -dry-run`
	// does over the full grid: no fold may choke on synthetic results.
	all := NewPlanner()
	for _, f := range Figures() {
		if _, err := f.Build(DefaultOptions(), all); err != nil {
			t.Fatalf("%s dry-run build: %v", f.ID, err)
		}
	}
	if st := all.Stats(); st.Submitted <= want {
		t.Fatalf("full grid planned %d distinct jobs, want more than fig5+fig6's %d", st.Submitted, want)
	}
}

// TestPoolRetryBackoff pins that Backoff actually separates attempts:
// with two failures and a 30ms base doubling per retry, the job waits
// 30ms then 60ms, so it cannot complete in under 90ms.
func TestPoolRetryBackoff(t *testing.T) {
	const base = 30 * time.Millisecond
	p := NewPool(PoolConfig{Workers: 1, Retries: 2, Backoff: Backoff{Base: base, Factor: 2}})
	var runs atomic.Int64
	p.run = func(j Job) (*JobResult, time.Duration, error) {
		if runs.Add(1) <= 2 {
			return nil, 0, errors.New("transient")
		}
		return fakeResult(j), 0, nil
	}
	start := time.Now()
	if _, err := p.Get(fakeJob("astar", 1)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 3*base {
		t.Fatalf("retried twice after %v, want at least the %v + %v backoff", elapsed, base, 2*base)
	}
	if got := runs.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
}

// TestPoolHostCostOverride pins that a backend-reported host cost (a
// remote worker's measurement) flows into events and Completed records
// instead of the pool's queue-inclusive wall clock.
func TestPoolHostCostOverride(t *testing.T) {
	const reported = 1234 * time.Millisecond
	var events []journal.Event
	p := NewPool(PoolConfig{Workers: 1, Progress: func(ev journal.Event) { events = append(events, ev) }})
	p.run = func(j Job) (*JobResult, time.Duration, error) {
		return fakeResult(j), reported, nil
	}
	if _, err := p.Get(fakeJob("astar", 1)); err != nil {
		t.Fatal(err)
	}
	rs := p.Results()
	if len(rs) != 1 || rs[0].Host != reported {
		t.Fatalf("Completed.Host = %v, want the reported %v", rs[0].Host, reported)
	}
	if len(events) != 1 || events[0].HostMS != float64(reported.Milliseconds()) {
		t.Fatalf("event HostMS = %v, want %v", events[0].HostMS, reported)
	}
}
