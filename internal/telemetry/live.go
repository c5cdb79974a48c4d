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

// FleetCounters are the additive per-worker counters of the fleet view. A
// FleetWorker row carries one set; FleetStats carries the departed
// aggregate and the fleet-wide totals as two more.
type FleetCounters struct {
	// Inflight is the number of leases the worker holds right now.
	Inflight int    `json:"inflight"`
	Leases   uint64 `json:"leases"`
	// Jobs counts accepted results: work the campaign used. Failed
	// results count as Failures, and late results the coordinator
	// rejected because the lease had been reclaimed count as Discards.
	Jobs     uint64 `json:"jobs"`
	Failures uint64 `json:"failures"`
	// Reclaims counts leases taken back after heartbeat silence or lease
	// timeout.
	Reclaims uint64 `json:"reclaims"`
	Discards uint64 `json:"discards"`
	// CacheHits counts accepted results replayed from a result cache
	// (manifest) instead of re-executed.
	CacheHits uint64 `json:"cache_hits"`
	// BreakerTrips counts closed→open circuit-breaker transitions.
	BreakerTrips uint64 `json:"breaker_trips"`
	// HostMS and SimCycles are the host milliseconds and simulated wall
	// cycles of the accepted jobs; TraceEvents/TraceDropped count the
	// trace-ring events they shipped and lost to ring wrap
	// (Options.TraceEvents).
	HostMS       float64 `json:"host_ms"`
	SimCycles    uint64  `json:"sim_cycles"`
	TraceEvents  uint64  `json:"trace_events"`
	TraceDropped uint64  `json:"trace_dropped"`
}

// AddJob records one accepted result: its host cost, whether it was
// replayed from a cache, its simulated wall cycles (JobResult.WallCycles)
// and its telemetry snapshot (nil when telemetry was not armed). The
// coordinator, the local pool and a worker's self-view all count jobs
// through it.
func (c *FleetCounters) AddJob(hostMS float64, cached bool, wallCycles uint64, snap *Snapshot) {
	c.Jobs++
	if cached {
		c.CacheHits++
	}
	c.HostMS += hostMS
	c.SimCycles += wallCycles
	if snap != nil {
		c.TraceEvents += uint64(len(snap.Trace))
		c.TraceDropped += snap.TraceDropped
	}
}

// Add folds o into c.
func (c *FleetCounters) Add(o FleetCounters) {
	c.Inflight += o.Inflight
	c.Leases += o.Leases
	c.Jobs += o.Jobs
	c.Failures += o.Failures
	c.Reclaims += o.Reclaims
	c.Discards += o.Discards
	c.CacheHits += o.CacheHits
	c.BreakerTrips += o.BreakerTrips
	c.HostMS += o.HostMS
	c.SimCycles += o.SimCycles
	c.TraceEvents += o.TraceEvents
	c.TraceDropped += o.TraceDropped
}

// FleetWorker is one worker's row in the fleet view. A local
// (non-distributed) campaign publishes a single "local" row, and
// cmd/worker's self-view publishes its own row.
type FleetWorker struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	FleetCounters
	// Breaker is the worker's circuit-breaker state ("closed", "open",
	// "half-open") and SecondsSinceSeen the age of its last request (lease,
	// heartbeat or result) at snapshot time; both are coordinator-only.
	Breaker          string  `json:"breaker,omitempty"`
	SecondsSinceSeen float64 `json:"seconds_since_seen,omitempty"`
}

// FleetStats is the one fleet view: served on /fleet and exported as the
// <tool>_fleet_* OpenMetrics families, plus the <tool>_dist_* families
// when Distributed. Published through SetFleetSource by the dist
// coordinator, the local pool or a worker; defined here so telemetry
// imports none of them.
type FleetStats struct {
	// Distributed marks a coordinator's view: lease accounting, eviction,
	// fallback and fault injection apply.
	Distributed bool `json:"distributed"`
	// Workers are the live rows, sorted by ID.
	Workers []FleetWorker `json:"workers"`
	// Departed folds the rows of the WorkersDeparted workers evicted after
	// prolonged silence, so totals survive eviction.
	Departed        FleetCounters `json:"departed"`
	WorkersDeparted int           `json:"workers_departed"`
	// FallbackRuns counts jobs the coordinator ran itself after the fleet
	// went silent.
	FallbackRuns uint64 `json:"fallback_runs"`
	// NetfaultInjections maps fault class name (drop, delay, duplicate,
	// reorder, reset, throttle, partition) to coordinator-side injection
	// count; nil when no coordinator-side injector fired.
	NetfaultInjections map[string]uint64 `json:"netfault_injections,omitempty"`
	// FleetCounters are the totals over Workers and Departed.
	FleetCounters
}

// Totaled returns a copy with the totals recomputed from the rows and the
// departed aggregate, so sources only need to fill those.
func (f FleetStats) Totaled() FleetStats {
	f.FleetCounters = f.Departed
	for _, w := range f.Workers {
		f.FleetCounters.Add(w.FleetCounters)
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
//	/fleet      JSON: the fleet view (FleetStats)
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

// SetFleetSource installs the provider of the fleet view (the dist
// coordinator's, the local pool's or a worker's own). When set, /fleet
// serves the snapshot and /metrics grows the fleet_* families, plus the
// dist_* families when the view is Distributed. Called per scrape; must
// be safe for concurrent use.
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

// endpointIndex describes every endpoint the server mounts, in the order
// the root index lists them.
var endpointIndex = []struct{ path, desc string }{
	{"/metrics", "OpenMetrics exposition (campaign progress, fleet, merged simulated metrics)"},
	{"/jobs", "JSON: the latest journal event of every observed job"},
	{"/events", "JSON: most recent journal events (ring of 256)"},
	{"/fleet", "JSON: the fleet view (per-worker leases, jobs, host/sim cost; departed, fallback, netfault)"},
	{"/healthz", "liveness probe"},
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
		fmt.Fprintf(w, "  %-9s %s\n", ep.path, ep.desc)
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
	if fleet != nil {
		l.writeFleetMetrics(w, fleet())
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

// writeFleetMetrics writes the fleet view's families: the per-worker and
// fleet-level <tool>_dist_* lease accounting when the view is
// Distributed, then the <tool>_fleet_* job and cost families, whose rows
// include the departed aggregate once a worker has been evicted.
func (l *Live) writeFleetMetrics(w io.Writer, fs FleetStats) {
	type rowFamily struct {
		name, help, kind string
		value            func(FleetWorker) string
	}
	type family struct{ name, help, kind, value string }
	writeRows := func(rows []FleetWorker, fams []rowFamily) {
		for _, fam := range fams {
			fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s %s\n", l.tool, fam.name, fam.help, l.tool, fam.name, fam.kind)
			for _, r := range rows {
				fmt.Fprintf(w, "%s_%s{worker=\"%s\",name=\"%s\"} %s\n", l.tool, fam.name, r.ID, r.Name, fam.value(r))
			}
		}
	}
	writeScalars := func(fams []family) {
		for _, fam := range fams {
			fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s %s\n%s_%s %s\n",
				l.tool, fam.name, fam.help, l.tool, fam.name, fam.kind, l.tool, fam.name, fam.value)
		}
	}
	n := func(v uint64) string { return fmt.Sprint(v) }
	if fs.Distributed {
		writeRows(fs.Workers, []rowFamily{
			{"dist_worker_inflight", "leases currently held by the worker", "gauge", func(r FleetWorker) string { return fmt.Sprint(r.Inflight) }},
			{"dist_worker_leases_total", "leases ever granted to the worker", "counter", func(r FleetWorker) string { return n(r.Leases) }},
			{"dist_worker_results_total", "successful results delivered by the worker", "counter", func(r FleetWorker) string { return n(r.Jobs) }},
			{"dist_worker_failures_total", "failed results delivered by the worker", "counter", func(r FleetWorker) string { return n(r.Failures) }},
			{"dist_worker_reclaims_total", "leases reclaimed from the worker after heartbeat or lease timeout", "counter", func(r FleetWorker) string { return n(r.Reclaims) }},
			{"dist_worker_cache_hits_total", "results the worker replayed from its local result cache", "counter", func(r FleetWorker) string { return n(r.CacheHits) }},
			{"dist_worker_discards_total", "late results discarded because the lease was already reclaimed", "counter", func(r FleetWorker) string { return n(r.Discards) }},
			{"dist_worker_breaker_trips_total", "circuit-breaker trips quarantining the worker", "counter", func(r FleetWorker) string { return n(r.BreakerTrips) }},
			{"dist_worker_breaker_open", "1 while the worker's circuit breaker is open (quarantined)", "gauge", func(r FleetWorker) string {
				if r.Breaker == "open" {
					return "1"
				}
				return "0"
			}},
		})
		writeScalars([]family{
			{"dist_workers_live", "workers currently in the live fleet view", "gauge", fmt.Sprint(len(fs.Workers))},
			{"dist_workers_departed_total", "workers evicted from the fleet after prolonged silence", "counter", fmt.Sprint(fs.WorkersDeparted)},
			{"dist_fallback_runs_total", "jobs the coordinator ran locally after the fleet went silent", "counter", n(fs.FallbackRuns)},
			{"dist_cache_hits_total", "results replayed from worker result caches, fleet-wide", "counter", n(fs.CacheHits)},
			{"dist_discards_total", "late results discarded after lease reclaim, fleet-wide", "counter", n(fs.Discards)},
			{"dist_breaker_trips_total", "circuit-breaker trips, fleet-wide", "counter", n(fs.BreakerTrips)},
		})
		if len(fs.NetfaultInjections) > 0 {
			fmt.Fprintf(w, "# HELP %s_dist_netfault_injections_total injected network faults by class\n# TYPE %s_dist_netfault_injections_total counter\n",
				l.tool, l.tool)
			classes := make([]string, 0, len(fs.NetfaultInjections))
			for c := range fs.NetfaultInjections {
				classes = append(classes, c)
			}
			sort.Strings(classes)
			for _, c := range classes {
				fmt.Fprintf(w, "%s_dist_netfault_injections_total{class=\"%s\"} %d\n", l.tool, c, fs.NetfaultInjections[c])
			}
		}
	}
	rows := fs.Workers
	if fs.WorkersDeparted > 0 {
		rows = append(rows[:len(rows):len(rows)], FleetWorker{
			ID: "departed", Name: fmt.Sprintf("%d evicted worker(s)", fs.WorkersDeparted), FleetCounters: fs.Departed,
		})
	}
	writeRows(rows, []rowFamily{
		{"fleet_worker_jobs_total", "jobs completed by the worker", "counter", func(r FleetWorker) string { return n(r.Jobs) }},
		{"fleet_worker_host_ms_total", "host milliseconds spent by the worker", "counter", func(r FleetWorker) string { return fmtVal(r.HostMS) }},
		{"fleet_worker_sim_cycles_total", "simulated wall cycles produced by the worker", "counter", func(r FleetWorker) string { return n(r.SimCycles) }},
		{"fleet_worker_trace_events_total", "trace events shipped by the worker", "counter", func(r FleetWorker) string { return n(r.TraceEvents) }},
		{"fleet_worker_trace_dropped_total", "trace events lost to ring wrap on the worker", "counter", func(r FleetWorker) string { return n(r.TraceDropped) }},
	})
	writeScalars([]family{
		{"fleet_workers", "workers contributing to the fleet aggregate", "gauge", fmt.Sprint(len(rows))},
		{"fleet_jobs_total", "jobs completed fleet-wide", "counter", n(fs.Jobs)},
		{"fleet_host_ms_total", "host milliseconds spent fleet-wide", "counter", fmtVal(fs.HostMS)},
		{"fleet_sim_cycles_total", "simulated wall cycles produced fleet-wide", "counter", n(fs.SimCycles)},
		{"fleet_trace_events_total", "trace events shipped fleet-wide", "counter", n(fs.TraceEvents)},
		{"fleet_trace_dropped_total", "trace events lost to ring wrap fleet-wide", "counter", n(fs.TraceDropped)},
	})
}

// handleFleet serves the fleet view, or an empty one when no fleet source
// is installed.
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
