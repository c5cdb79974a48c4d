package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/journal"
)

func liveGet(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestLiveEndpoints(t *testing.T) {
	l := NewLive("sweep")
	l.Observe(journal.Event{Kind: journal.KindJobResult, Key: "k1", Workload: "astar", Condition: "Reloaded", Status: "ran", Attempt: 1, Done: 1, Total: 3})
	l.Observe(journal.Event{Kind: journal.KindJobRetry, Key: "k2", Workload: "hmmer", Condition: "Baseline", Status: "retry", Attempt: 1, Err: "timeout"})
	l.Observe(journal.Event{Kind: journal.KindJobResult, Key: "k2", Workload: "hmmer", Condition: "Baseline", Status: "ran", Attempt: 2, Done: 2, Total: 3})
	l.SetMetricsSource(func() *Snapshot { return synthSnap(5) })

	srv := httptest.NewServer(l.Handler())
	defer srv.Close()

	if code, body := liveGet(t, srv, "/healthz"); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body := liveGet(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"sweep_jobs_total 3",
		"sweep_jobs_done 2",
		`sweep_job_events_total{status="ran"} 2`,
		`sweep_job_events_total{status="retry"} 1`,
		"shootdowns_total 5", // merged simulated families follow
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	if !strings.HasSuffix(strings.TrimSpace(body), "# EOF") {
		t.Errorf("/metrics not EOF-terminated:\n%s", body)
	}
	if strings.Count(body, "# EOF") != 1 {
		t.Errorf("/metrics has multiple EOF markers:\n%s", body)
	}

	code, body = liveGet(t, srv, "/jobs")
	if code != 200 {
		t.Fatalf("/jobs = %d", code)
	}
	var jobs []journal.Event
	if err := json.Unmarshal([]byte(body), &jobs); err != nil {
		t.Fatalf("/jobs is not JSON: %v", err)
	}
	if len(jobs) != 2 {
		t.Fatalf("/jobs has %d entries, want 2 (latest state per key)", len(jobs))
	}
	if jobs[1].Key != "k2" || jobs[1].Status != "ran" || jobs[1].Attempt != 2 {
		t.Fatalf("k2 state not updated in place: %+v", jobs[1])
	}

	code, body = liveGet(t, srv, "/events")
	if code != 200 {
		t.Fatalf("/events = %d", code)
	}
	var evs []journal.Event
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatalf("/events is not JSON: %v", err)
	}
	if len(evs) != 3 {
		t.Fatalf("/events has %d entries, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}

	if code, body := liveGet(t, srv, "/"); code != 200 || !strings.Contains(body, "2/3 jobs done") {
		t.Fatalf("/ = %d %q", code, body)
	}
	if code, _ := liveGet(t, srv, "/nope"); code != 404 {
		t.Fatalf("unknown path = %d, want 404", code)
	}
}

// TestLiveWorkers pins the distributed-campaign surface: /workers serves
// an empty JSON array until a source is installed, then the coordinator's
// per-worker snapshot, and /metrics grows the <tool>_dist_* families.
func TestLiveWorkers(t *testing.T) {
	l := NewLive("sweep")
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()

	if code, body := liveGet(t, srv, "/workers"); code != 200 || strings.TrimSpace(body) != "[]" {
		t.Fatalf("/workers before a source = %d %q, want 200 with an empty JSON array", code, body)
	}
	if _, body := liveGet(t, srv, "/metrics"); strings.Contains(body, "dist_worker") {
		t.Fatal("dist families emitted without a worker source")
	}

	l.SetWorkerSource(func() []WorkerStatus {
		return []WorkerStatus{
			{ID: "w001", Name: "alpha", Inflight: 2, Leases: 7, Results: 5, Reclaims: 1},
			{ID: "w002", Name: "beta", Leases: 3, Results: 2, Failures: 1},
		}
	})
	code, body := liveGet(t, srv, "/workers")
	if code != 200 {
		t.Fatalf("/workers = %d", code)
	}
	var ws []WorkerStatus
	if err := json.Unmarshal([]byte(body), &ws); err != nil {
		t.Fatalf("/workers is not JSON: %v", err)
	}
	if len(ws) != 2 || ws[0].ID != "w001" || ws[0].Inflight != 2 || ws[1].Failures != 1 {
		t.Fatalf("/workers = %+v", ws)
	}

	_, body = liveGet(t, srv, "/metrics")
	for _, want := range []string{
		`sweep_dist_worker_inflight{worker="w001",name="alpha"} 2`,
		`sweep_dist_worker_leases_total{worker="w001",name="alpha"} 7`,
		`sweep_dist_worker_results_total{worker="w002",name="beta"} 2`,
		`sweep_dist_worker_failures_total{worker="w002",name="beta"} 1`,
		`sweep_dist_worker_reclaims_total{worker="w001",name="alpha"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	if code, body := liveGet(t, srv, "/"); code != 200 || !strings.Contains(body, "/workers") {
		t.Fatalf("/ does not advertise /workers: %d %q", code, body)
	}
}

// TestLiveDistStats pins the degraded-mode surface: /dist serves a
// zero-valued JSON object until a source is installed, then the
// coordinator's fleet-level snapshot, and /metrics grows the
// breaker/cache/fallback/netfault families.
func TestLiveDistStats(t *testing.T) {
	l := NewLive("sweep")
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()

	if code, body := liveGet(t, srv, "/dist"); code != 200 || !strings.Contains(body, `"workers_live": 0`) {
		t.Fatalf("/dist before a source = %d %q, want 200 with a zero snapshot", code, body)
	}
	if _, body := liveGet(t, srv, "/metrics"); strings.Contains(body, "dist_workers_live") {
		t.Fatal("dist fleet families emitted without a source")
	}

	l.SetWorkerSource(func() []WorkerStatus {
		return []WorkerStatus{
			{ID: "w001", Name: "alpha", CacheHits: 4, Discards: 1, Breaker: "open", BreakerTrips: 2},
		}
	})
	l.SetDistSource(func() DistStats {
		return DistStats{
			WorkersLive:     1,
			WorkersDeparted: 3,
			FallbackRuns:    5,
			CacheHits:       4,
			Discards:        1,
			Reclaims:        2,
			BreakerTrips:    2,
			NetfaultInjections: map[string]uint64{
				"drop": 7, "partition": 2,
			},
		}
	})

	code, body := liveGet(t, srv, "/dist")
	if code != 200 {
		t.Fatalf("/dist = %d", code)
	}
	var st DistStats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/dist is not JSON: %v", err)
	}
	if st.WorkersDeparted != 3 || st.FallbackRuns != 5 || st.NetfaultInjections["drop"] != 7 {
		t.Fatalf("/dist = %+v", st)
	}

	_, body = liveGet(t, srv, "/metrics")
	for _, want := range []string{
		`sweep_dist_worker_cache_hits_total{worker="w001",name="alpha"} 4`,
		`sweep_dist_worker_discards_total{worker="w001",name="alpha"} 1`,
		`sweep_dist_worker_breaker_trips_total{worker="w001",name="alpha"} 2`,
		`sweep_dist_worker_breaker_open{worker="w001",name="alpha"} 1`,
		`sweep_dist_workers_live 1`,
		`sweep_dist_workers_departed_total 3`,
		`sweep_dist_fallback_runs_total 5`,
		`sweep_dist_cache_hits_total 4`,
		`sweep_dist_discards_total 1`,
		`sweep_dist_breaker_trips_total 2`,
		`sweep_dist_netfault_injections_total{class="drop"} 7`,
		`sweep_dist_netfault_injections_total{class="partition"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestLiveFleet pins the fleet observability surface: /fleet serves an
// empty aggregate until a source is installed, then the merged per-worker
// view, /metrics grows the fleet_* families, and the root index
// advertises every endpoint with the right Content-Type.
func TestLiveFleet(t *testing.T) {
	l := NewLive("sweep")
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/ Content-Type = %q, want text/plain", ct)
	}
	for _, ep := range []string{"/metrics", "/jobs", "/events", "/workers", "/dist", "/fleet", "/healthz"} {
		if !strings.Contains(string(body), ep) {
			t.Errorf("/ index missing %s:\n%s", ep, body)
		}
	}
	if !strings.Contains(string(body), "inactive: campaign is not distributed") {
		t.Errorf("/ index does not mark dist-only endpoints inactive:\n%s", body)
	}

	code, fbody := liveGet(t, srv, "/fleet")
	if code != 200 || !strings.Contains(fbody, `"workers": []`) {
		t.Fatalf("/fleet before a source = %d %q, want 200 with an empty aggregate", code, fbody)
	}
	if _, mbody := liveGet(t, srv, "/metrics"); strings.Contains(mbody, "fleet_") {
		t.Fatal("fleet families emitted without a source")
	}

	l.SetFleetSource(func() FleetStats {
		return FleetStats{Workers: []FleetWorker{
			{ID: "w001", Name: "alpha", Jobs: 5, CacheHits: 1, HostMS: 120.5, SimCycles: 9000, TraceEvents: 64, TraceDropped: 3},
			{ID: "w002", Name: "beta", Jobs: 3, HostMS: 80, SimCycles: 4000, TraceEvents: 32},
		}}.Totaled()
	})
	code, fbody = liveGet(t, srv, "/fleet")
	if code != 200 {
		t.Fatalf("/fleet = %d", code)
	}
	var fs FleetStats
	if err := json.Unmarshal([]byte(fbody), &fs); err != nil {
		t.Fatalf("/fleet is not JSON: %v", err)
	}
	if len(fs.Workers) != 2 || fs.Jobs != 8 || fs.SimCycles != 13000 || fs.TraceDropped != 3 {
		t.Fatalf("/fleet totals wrong: %+v", fs)
	}

	_, mbody := liveGet(t, srv, "/metrics")
	for _, want := range []string{
		`sweep_fleet_worker_jobs_total{worker="w001",name="alpha"} 5`,
		`sweep_fleet_worker_sim_cycles_total{worker="w002",name="beta"} 4000`,
		`sweep_fleet_worker_trace_dropped_total{worker="w001",name="alpha"} 3`,
		`sweep_fleet_workers 2`,
		`sweep_fleet_jobs_total 8`,
		`sweep_fleet_sim_cycles_total 13000`,
		`sweep_fleet_trace_events_total 96`,
		`sweep_fleet_trace_dropped_total 3`,
	} {
		if !strings.Contains(mbody, want) {
			t.Errorf("/metrics missing %q:\n%s", want, mbody)
		}
	}

	// The merged-snapshot trace-loss counter is a separate satellite: the
	// end-of-run summary and scrapers both read <tool>_trace_dropped_total.
	l.SetMetricsSource(func() *Snapshot {
		s := synthSnap(1)
		s.TraceDropped = 42
		return s
	})
	if _, mbody := liveGet(t, srv, "/metrics"); !strings.Contains(mbody, "sweep_trace_dropped_total 42") {
		t.Errorf("/metrics missing merged trace-dropped counter:\n%s", mbody)
	}
}

// TestLiveConcurrentObserve hammers Observe from many goroutines while
// scraping; run with -race to catch lock violations.
func TestLiveConcurrentObserve(t *testing.T) {
	l := NewLive("chaos")
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Observe(journal.Event{Kind: journal.KindJobResult, Key: "k", Status: "ran", Done: i, Total: 400})
			}
		}(g)
	}
	for i := 0; i < 10; i++ {
		if code, _ := liveGet(t, srv, "/metrics"); code != 200 {
			t.Fatalf("/metrics = %d mid-campaign", code)
		}
		if code, _ := liveGet(t, srv, "/fleet"); code != 200 {
			t.Fatalf("/fleet = %d mid-campaign", code)
		}
	}
	wg.Wait()
	if code, body := liveGet(t, srv, "/metrics"); code != 200 || !strings.Contains(body, "chaos_jobs_total 400") {
		t.Fatalf("final /metrics = %d %q", code, body)
	}
}

func TestLiveStartAndClose(t *testing.T) {
	l := NewLive("sweep")
	addr, err := l.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("GET bound addr: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz over real listener = %d", resp.StatusCode)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var nilLive *Live
	nilLive.Observe(journal.Event{})
	nilLive.SetMetricsSource(nil)
	nilLive.SetWorkerSource(nil)
	nilLive.SetDistSource(nil)
	if err := nilLive.Close(); err != nil {
		t.Fatal(err)
	}
}
