package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/journal"
)

// WorkerStatus is one distributed worker's lease accounting, published
// by internal/dist's coordinator through SetWorkerSource. Defined here
// so telemetry does not import dist.
type WorkerStatus struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	Inflight int    `json:"inflight"`
	Leases   uint64 `json:"leases"`
	Results  uint64 `json:"results"`
	Failures uint64 `json:"failures"`
	Reclaims uint64 `json:"reclaims"`
	// CacheHits counts results the worker replayed from its local result
	// cache (manifest) instead of re-executing.
	CacheHits uint64 `json:"cache_hits,omitempty"`
	// Discards counts late results the coordinator rejected because the
	// lease had already been reclaimed.
	Discards uint64 `json:"discards,omitempty"`
	// Breaker is the worker's circuit-breaker state ("closed", "open",
	// "half-open"); BreakerTrips counts closed→open transitions.
	Breaker      string `json:"breaker,omitempty"`
	BreakerTrips uint64 `json:"breaker_trips,omitempty"`
	// SecondsSinceSeen is the age of the worker's last request (lease,
	// heartbeat or result) at snapshot time.
	SecondsSinceSeen float64 `json:"seconds_since_seen"`
}

// DistStats is the coordinator-level degraded-mode accounting, published
// by internal/dist through SetDistSource: fleet size (live vs evicted),
// counters that survive worker eviction, local-fallback activity, and —
// when the campaign ran under network fault injection — per-class
// injection counts.
type DistStats struct {
	WorkersLive     int    `json:"workers_live"`
	WorkersDeparted int    `json:"workers_departed"`
	FallbackRuns    uint64 `json:"fallback_runs"`
	CacheHits       uint64 `json:"cache_hits"`
	Discards        uint64 `json:"discards"`
	Reclaims        uint64 `json:"reclaims"`
	BreakerTrips    uint64 `json:"breaker_trips"`
	// NetfaultInjections maps fault class name (drop, delay, duplicate,
	// reorder, reset, throttle, partition) to injection count; nil when no
	// coordinator-side injector is armed.
	NetfaultInjections map[string]uint64 `json:"netfault_injections,omitempty"`
}

// FleetWorker is one worker's contribution to the campaign's merged
// observability view: how many jobs it completed and where its host and
// simulated time went. A local (non-distributed) campaign publishes a
// single synthetic "local" worker.
type FleetWorker struct {
	ID        string  `json:"id"`
	Name      string  `json:"name"`
	Jobs      uint64  `json:"jobs"`
	CacheHits uint64  `json:"cache_hits,omitempty"`
	HostMS    float64 `json:"host_ms"`
	SimCycles uint64  `json:"sim_cycles"`
	// TraceEvents/TraceDropped count trace-ring events shipped and
	// overwritten across the worker's jobs (Options.TraceEvents).
	TraceEvents  uint64 `json:"trace_events,omitempty"`
	TraceDropped uint64 `json:"trace_dropped,omitempty"`
}

// FleetStats is the fleet-level aggregate served on /fleet and exported
// as the fleet_* OpenMetrics families: per-worker rows plus totals.
// Published through SetFleetSource by the dist coordinator (or a local
// pool adapter); defined here so telemetry imports neither.
type FleetStats struct {
	Workers      []FleetWorker `json:"workers"`
	Jobs         uint64        `json:"jobs"`
	HostMS       float64       `json:"host_ms"`
	SimCycles    uint64        `json:"sim_cycles"`
	TraceEvents  uint64        `json:"trace_events"`
	TraceDropped uint64        `json:"trace_dropped"`
}

// Totaled returns a copy with the totals recomputed from the per-worker
// rows, so sources only need to fill Workers.
func (f FleetStats) Totaled() FleetStats {
	f.Jobs, f.HostMS, f.SimCycles, f.TraceEvents, f.TraceDropped = 0, 0, 0, 0, 0
	for _, w := range f.Workers {
		f.Jobs += w.Jobs
		f.HostMS += w.HostMS
		f.SimCycles += w.SimCycles
		f.TraceEvents += w.TraceEvents
		f.TraceDropped += w.TraceDropped
	}
	return f
}

// maxRecentEvents bounds the /events ring.
const maxRecentEvents = 256

// Live is the introspection HTTP server mounted by cmd/sweep and
// cmd/chaos under -http. It serves:
//
//	/           human-readable status summary + endpoint index
//	/metrics    OpenMetrics: host-side campaign progress counters, the
//	            fleet_* families, plus the merged simulated-metric
//	            families when a source is set
//	/jobs       JSON: the latest journal event of every observed job
//	/events     JSON: the most recent journal events (ring of 256)
//	/workers    JSON: per-worker lease accounting (empty when local)
//	/dist       JSON: coordinator degraded-mode stats (empty when local)
//	/fleet      JSON: fleet-level merged telemetry aggregate
//	/healthz    "ok"
//
// Live runs on the host side and is the one telemetry component that is
// genuinely concurrent: Observe is called from pool worker goroutines
// while HTTP handlers read, so all state is mutex-guarded.
type Live struct {
	tool  string
	start time.Time

	mu      sync.Mutex
	updates map[string]journal.Event
	order   []string
	recent  []journal.Event
	seq     int
	done    int
	total   int
	byStat  map[string]int
	source  func() *Snapshot
	workers func() []WorkerStatus
	dist    func() DistStats
	fleet   func() FleetStats

	srv *http.Server
	ln  net.Listener
}

// NewLive creates a server for the named tool ("sweep", "chaos").
func NewLive(tool string) *Live {
	return &Live{
		tool:    tool,
		start:   time.Now(),
		updates: map[string]journal.Event{},
		byStat:  map[string]int{},
	}
}

// Observe records one campaign event, stamping it with the server's own
// sequence number and host-nanosecond offset. Chain it into the pool's
// Progress callback; safe for concurrent use.
func (l *Live) Observe(ev journal.Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	ev.Seq, ev.HostNS = l.seq, time.Since(l.start).Nanoseconds()
	if _, seen := l.updates[ev.Key]; !seen {
		l.order = append(l.order, ev.Key)
	}
	l.updates[ev.Key] = ev
	status := ev.Status
	if status == "" {
		status = ev.Kind // a manifest-error carries no job status
	}
	l.byStat[status]++
	if ev.Done > 0 {
		l.done = ev.Done
	}
	if ev.Total > l.total {
		l.total = ev.Total
	}
	l.recent = append(l.recent, ev)
	if len(l.recent) > maxRecentEvents {
		l.recent = l.recent[len(l.recent)-maxRecentEvents:]
	}
}

// SetMetricsSource installs a provider of merged simulated metrics,
// appended to /metrics after the host-side progress families. The
// function is called per scrape and must be safe for concurrent use.
func (l *Live) SetMetricsSource(fn func() *Snapshot) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.source = fn
	l.mu.Unlock()
}

// SetWorkerSource installs a provider of distributed-worker status (the
// dist coordinator's Workers method). When set, /workers serves the
// snapshot and /metrics grows per-worker lease families. Called per
// scrape; must be safe for concurrent use.
func (l *Live) SetWorkerSource(fn func() []WorkerStatus) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.workers = fn
	l.mu.Unlock()
}

// SetDistSource installs a provider of coordinator-level degraded-mode
// stats (the dist coordinator's DistStats method). When set, /dist serves
// the snapshot and /metrics grows fleet-level families. Called per
// scrape; must be safe for concurrent use.
func (l *Live) SetDistSource(fn func() DistStats) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.dist = fn
	l.mu.Unlock()
}

// SetFleetSource installs a provider of fleet-level merged telemetry
// (per-worker job/host-cost/sim-cycle/trace accounting). When set,
// /fleet serves the snapshot and /metrics grows the fleet_* families.
// Called per scrape; must be safe for concurrent use.
func (l *Live) SetFleetSource(fn func() FleetStats) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.fleet = fn
	l.mu.Unlock()
}

// Handler returns the HTTP mux.
func (l *Live) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", l.handleRoot)
	mux.HandleFunc("/metrics", l.handleMetrics)
	mux.HandleFunc("/jobs", l.handleJobs)
	mux.HandleFunc("/events", l.handleEvents)
	mux.HandleFunc("/workers", l.handleWorkers)
	mux.HandleFunc("/dist", l.handleDist)
	mux.HandleFunc("/fleet", l.handleFleet)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Start listens on addr (":0" for ephemeral) and serves in a background
// goroutine, returning the bound address.
func (l *Live) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	l.ln = ln
	l.srv = &http.Server{Handler: l.Handler()}
	go func() { _ = l.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close shuts the listener down.
func (l *Live) Close() error {
	if l == nil || l.srv == nil {
		return nil
	}
	return l.srv.Close()
}

// endpointIndex describes every endpoint the server can mount, in the
// order the root index lists them.
var endpointIndex = []struct {
	path, desc string
	distOnly   bool
}{
	{"/metrics", "OpenMetrics exposition (campaign progress, fleet, merged simulated metrics)", false},
	{"/jobs", "JSON: the latest journal event of every observed job", false},
	{"/events", "JSON: most recent journal events (ring of 256)", false},
	{"/workers", "JSON: per-worker lease accounting (distributed campaigns)", true},
	{"/dist", "JSON: coordinator degraded-mode stats (distributed campaigns)", true},
	{"/fleet", "JSON: fleet-level merged telemetry (per-worker host/sim cost)", false},
	{"/healthz", "liveness probe", false},
}

func (l *Live) handleRoot(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "%s: %d/%d jobs done, up %s\n", l.tool, l.done, l.total,
		time.Since(l.start).Round(time.Second))
	stats := make([]string, 0, len(l.byStat))
	for s := range l.byStat {
		stats = append(stats, s)
	}
	sort.Strings(stats)
	for _, s := range stats {
		fmt.Fprintf(w, "  %-8s %d\n", s, l.byStat[s])
	}
	fmt.Fprintln(w, "endpoints:")
	for _, ep := range endpointIndex {
		note := ""
		if ep.distOnly && l.workers == nil {
			note = " (inactive: campaign is not distributed)"
		}
		fmt.Fprintf(w, "  %-9s %s%s\n", ep.path, ep.desc, note)
	}
}

func (l *Live) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	l.WriteMetrics(w)
}

// WriteMetrics writes the full OpenMetrics exposition (the /metrics
// body, "# EOF" included) to w. Exported so -metrics FILE dumps and the
// HTTP handler share one implementation.
func (l *Live) WriteMetrics(w io.Writer) {
	l.mu.Lock()
	done, total := l.done, l.total
	byStat := map[string]int{}
	for k, v := range l.byStat {
		byStat[k] = v
	}
	source := l.source
	workers := l.workers
	dist := l.dist
	fleet := l.fleet
	l.mu.Unlock()

	fmt.Fprintf(w, "# HELP %s_jobs_total jobs in the campaign grid\n# TYPE %s_jobs_total gauge\n%s_jobs_total %d\n",
		l.tool, l.tool, l.tool, total)
	fmt.Fprintf(w, "# HELP %s_jobs_done jobs completed (ran or cached)\n# TYPE %s_jobs_done gauge\n%s_jobs_done %d\n",
		l.tool, l.tool, l.tool, done)
	fmt.Fprintf(w, "# HELP %s_job_events_total progress events by status\n# TYPE %s_job_events_total counter\n",
		l.tool, l.tool)
	for _, s := range []string{"ran", "cached", "retry", "failed"} {
		fmt.Fprintf(w, "%s_job_events_total{status=\"%s\"} %d\n", l.tool, s, byStat[s])
	}
	if workers != nil {
		ws := workers()
		for _, fam := range []struct {
			name, help string
			value      func(WorkerStatus) uint64
		}{
			{"dist_worker_inflight", "leases currently held by the worker", func(s WorkerStatus) uint64 { return uint64(s.Inflight) }},
			{"dist_worker_leases_total", "leases ever granted to the worker", func(s WorkerStatus) uint64 { return s.Leases }},
			{"dist_worker_results_total", "successful results delivered by the worker", func(s WorkerStatus) uint64 { return s.Results }},
			{"dist_worker_failures_total", "failed results delivered by the worker", func(s WorkerStatus) uint64 { return s.Failures }},
			{"dist_worker_reclaims_total", "leases reclaimed from the worker after heartbeat or lease timeout", func(s WorkerStatus) uint64 { return s.Reclaims }},
			{"dist_worker_cache_hits_total", "results the worker replayed from its local result cache", func(s WorkerStatus) uint64 { return s.CacheHits }},
			{"dist_worker_discards_total", "late results discarded because the lease was already reclaimed", func(s WorkerStatus) uint64 { return s.Discards }},
			{"dist_worker_breaker_trips_total", "circuit-breaker trips quarantining the worker", func(s WorkerStatus) uint64 { return s.BreakerTrips }},
			{"dist_worker_breaker_open", "1 while the worker's circuit breaker is open (quarantined)", func(s WorkerStatus) uint64 {
				if s.Breaker == "open" {
					return 1
				}
				return 0
			}},
		} {
			kind := "counter"
			if fam.name == "dist_worker_inflight" || fam.name == "dist_worker_breaker_open" {
				kind = "gauge"
			}
			fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s %s\n", l.tool, fam.name, fam.help, l.tool, fam.name, kind)
			for _, s := range ws {
				fmt.Fprintf(w, "%s_%s{worker=\"%s\",name=\"%s\"} %d\n", l.tool, fam.name, s.ID, s.Name, fam.value(s))
			}
		}
	}
	if dist != nil {
		st := dist()
		for _, fam := range []struct {
			name, help, kind string
			value            uint64
		}{
			{"dist_workers_live", "workers currently in the live fleet view", "gauge", uint64(st.WorkersLive)},
			{"dist_workers_departed_total", "workers evicted from the fleet after prolonged silence", "counter", uint64(st.WorkersDeparted)},
			{"dist_fallback_runs_total", "jobs the coordinator ran locally after the fleet went silent", "counter", st.FallbackRuns},
			{"dist_cache_hits_total", "results replayed from worker result caches, fleet-wide", "counter", st.CacheHits},
			{"dist_discards_total", "late results discarded after lease reclaim, fleet-wide", "counter", st.Discards},
			{"dist_breaker_trips_total", "circuit-breaker trips, fleet-wide", "counter", st.BreakerTrips},
		} {
			fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s %s\n%s_%s %d\n",
				l.tool, fam.name, fam.help, l.tool, fam.name, fam.kind, l.tool, fam.name, fam.value)
		}
		if len(st.NetfaultInjections) > 0 {
			fmt.Fprintf(w, "# HELP %s_dist_netfault_injections_total injected network faults by class\n# TYPE %s_dist_netfault_injections_total counter\n",
				l.tool, l.tool)
			classes := make([]string, 0, len(st.NetfaultInjections))
			for c := range st.NetfaultInjections {
				classes = append(classes, c)
			}
			sort.Strings(classes)
			for _, c := range classes {
				fmt.Fprintf(w, "%s_dist_netfault_injections_total{class=\"%s\"} %d\n", l.tool, c, st.NetfaultInjections[c])
			}
		}
	}
	if fleet != nil {
		fs := fleet()
		for _, fam := range []struct {
			name, help string
			value      func(FleetWorker) string
		}{
			{"fleet_worker_jobs_total", "jobs completed by the worker", func(s FleetWorker) string { return fmt.Sprint(s.Jobs) }},
			{"fleet_worker_host_ms_total", "host milliseconds spent by the worker", func(s FleetWorker) string { return fmtVal(s.HostMS) }},
			{"fleet_worker_sim_cycles_total", "simulated wall cycles produced by the worker", func(s FleetWorker) string { return fmt.Sprint(s.SimCycles) }},
			{"fleet_worker_trace_events_total", "trace events shipped by the worker", func(s FleetWorker) string { return fmt.Sprint(s.TraceEvents) }},
			{"fleet_worker_trace_dropped_total", "trace events lost to ring wrap on the worker", func(s FleetWorker) string { return fmt.Sprint(s.TraceDropped) }},
		} {
			fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s counter\n", l.tool, fam.name, fam.help, l.tool, fam.name)
			for _, s := range fs.Workers {
				fmt.Fprintf(w, "%s_%s{worker=\"%s\",name=\"%s\"} %s\n", l.tool, fam.name, s.ID, s.Name, fam.value(s))
			}
		}
		for _, fam := range []struct {
			name, help, kind, value string
		}{
			{"fleet_workers", "workers contributing to the fleet aggregate", "gauge", fmt.Sprint(len(fs.Workers))},
			{"fleet_jobs_total", "jobs completed fleet-wide", "counter", fmt.Sprint(fs.Jobs)},
			{"fleet_host_ms_total", "host milliseconds spent fleet-wide", "counter", fmtVal(fs.HostMS)},
			{"fleet_sim_cycles_total", "simulated wall cycles produced fleet-wide", "counter", fmt.Sprint(fs.SimCycles)},
			{"fleet_trace_events_total", "trace events shipped fleet-wide", "counter", fmt.Sprint(fs.TraceEvents)},
			{"fleet_trace_dropped_total", "trace events lost to ring wrap fleet-wide", "counter", fmt.Sprint(fs.TraceDropped)},
		} {
			fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s %s\n%s_%s %s\n",
				l.tool, fam.name, fam.help, l.tool, fam.name, fam.kind, l.tool, fam.name, fam.value)
		}
	}
	if source != nil {
		if snap := source(); snap != nil {
			fmt.Fprintf(w, "# HELP %s_trace_dropped_total trace events lost to ring wrap across merged jobs\n# TYPE %s_trace_dropped_total counter\n%s_trace_dropped_total %d\n",
				l.tool, l.tool, l.tool, snap.TraceDropped)
			_ = snap.WriteOpenMetrics(w, false)
		}
	}
	fmt.Fprintln(w, "# EOF")
}

// handleWorkers serves the distributed-worker snapshot. When the
// campaign is not distributed (no source installed) it serves an empty
// JSON array rather than a 404, so scrapers need no special-casing.
func (l *Live) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	l.mu.Lock()
	workers := l.workers
	l.mu.Unlock()
	ws := []WorkerStatus{}
	if workers != nil {
		if got := workers(); got != nil {
			ws = got
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(ws)
}

// handleDist serves the coordinator-level degraded-mode snapshot, or an
// empty JSON object when the campaign is not distributed.
func (l *Live) handleDist(w http.ResponseWriter, _ *http.Request) {
	l.mu.Lock()
	dist := l.dist
	l.mu.Unlock()
	var st DistStats
	if dist != nil {
		st = dist()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(st)
}

// handleFleet serves the fleet-level merged telemetry aggregate, or an
// empty JSON object when no fleet source is installed.
func (l *Live) handleFleet(w http.ResponseWriter, _ *http.Request) {
	l.mu.Lock()
	fleet := l.fleet
	l.mu.Unlock()
	var fs FleetStats
	if fleet != nil {
		fs = fleet()
	}
	if fs.Workers == nil {
		fs.Workers = []FleetWorker{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(fs)
}

func (l *Live) handleJobs(w http.ResponseWriter, _ *http.Request) {
	l.mu.Lock()
	jobs := make([]journal.Event, 0, len(l.order))
	for _, k := range l.order {
		jobs = append(jobs, l.updates[k])
	}
	l.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(jobs)
}

func (l *Live) handleEvents(w http.ResponseWriter, _ *http.Request) {
	l.mu.Lock()
	evs := append([]journal.Event(nil), l.recent...)
	l.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(evs)
}
