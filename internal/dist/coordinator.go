package dist

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/dist/netfault"
	"repro/internal/expt"
	"repro/internal/journal"
	"repro/internal/telemetry"
)

// Config tunes a Coordinator.
type Config struct {
	// Tool and Grid identify the campaign ("sweep"/"chaos" plus the grid
	// signature the manifest header pins); echoed to workers at hello.
	Tool string
	Grid string
	// Pool configures the embedded expt.Pool: Workers bounds in-flight
	// leases, Manifest/Retries/Backoff/Progress work exactly as in a
	// local run, and Telemetry is forwarded to workers instead of being
	// applied locally. Pool.Timeout is ignored — LeaseTimeout is its
	// distributed equivalent, enforced by lease reclaim so the queue
	// never double-issues a live attempt.
	Pool expt.PoolConfig
	// LeaseTimeout bounds one lease's lifetime regardless of heartbeats
	// (a wedged worker heartbeats forever); 0 = unbounded.
	LeaseTimeout time.Duration
	// Heartbeat is the renewal interval advertised to workers (default
	// 1s); a lease missing HeartbeatMiss consecutive intervals (default
	// 4) is reclaimed and its job re-issued through the pool's bounded
	// retry machinery.
	Heartbeat     time.Duration
	HeartbeatMiss int
	// WaitMS is the poll delay suggested to idle workers (default 100).
	WaitMS int64
	// Faults, when non-nil, arms coordinator-side network fault injection
	// over the protocol endpoints (netfault.Handler): inbound drop and
	// delay, plus partition of a deterministic worker subset. Worker-side
	// classes (drop/delay/duplicate/reorder/reset/throttle) are armed on
	// the workers themselves.
	Faults *netfault.Spec
	// BreakerFailures trips a worker's circuit breaker after this many
	// consecutive failures or reclaims (0 = breaker off). A tripped
	// worker is quarantined — lease requests answered with waits — for
	// BreakerCooldown (default 2s), then allowed one probe lease.
	BreakerFailures int
	BreakerCooldown time.Duration
	// EvictAfter removes a worker holding no leases from the live fleet
	// view once it has been silent this long; its counters fold into the
	// departed aggregate (DistStats) instead of being reported live
	// forever. Default 60 heartbeat intervals; negative disables.
	EvictAfter time.Duration
	// LocalFallback, when > 0, degrades the coordinator to local
	// execution: if the fleet has been silent (no worker request at all)
	// for this long while jobs are queued and no leases are outstanding,
	// queued jobs run on the coordinator itself through the same
	// expt.RunJob path a worker would use. 0 = wait for workers forever.
	LocalFallback time.Duration
	// Logf, when set, receives degraded-mode notices (breaker trips,
	// evictions, local-fallback activation).
	Logf func(format string, args ...any)
}

// task is one pool attempt awaiting a worker.
type task struct {
	key  string
	job  expt.Job
	done chan taskOutcome // buffered 1; exactly one delivery
}

type taskOutcome struct {
	res  *expt.JobResult
	host time.Duration
	err  error
}

// lease is a task checked out to a worker.
type lease struct {
	id       string
	t        *task
	worker   string // worker id
	granted  time.Time
	lastBeat time.Time
}

// workerState is the coordinator's per-worker accounting, surfaced on the
// live introspection server.
type workerState struct {
	id, name  string
	inflight  int
	leases    uint64
	results   uint64
	failures  uint64
	reclaims  uint64
	cacheHits uint64
	discards  uint64
	brk       breaker
	lastSeen  time.Time
	// Fleet-observability accounting, accumulated from accepted results:
	// host cost reported by the worker, simulated cycles produced, and
	// trace-ring events shipped/overwritten (Snapshot.Trace).
	hostMS       float64
	simCycles    uint64
	traceEvents  uint64
	traceDropped uint64
}

// departed aggregates the counters of evicted workers so fleet totals
// survive eviction.
type departed struct {
	count        int
	leases       uint64
	results      uint64
	failures     uint64
	reclaims     uint64
	cacheHits    uint64
	discards     uint64
	trips        uint64
	hostMS       float64
	simCycles    uint64
	traceEvents  uint64
	traceDropped uint64
}

// Coordinator owns a campaign's job grid and leases it out to network
// workers. It is an expt.Executor: cmd/sweep and cmd/chaos drive it
// exactly as they drive a local Pool, and the embedded Pool supplies
// dedup, manifest resume, retry and progress — only the execution backend
// differs, which is what keeps distributed documents identical to local
// ones.
type Coordinator struct {
	cfg        Config
	pool       *expt.Pool
	hbEvery    time.Duration
	hbMiss     int
	waitMS     int64
	evictAfter time.Duration
	brkCool    time.Duration
	faults     *netfault.Injector
	// localRun executes one job on the coordinator itself when the
	// LocalFallback deadline fires (tests inject fakes; default RunJob).
	localRun func(expt.Job) (*expt.JobResult, time.Duration, error)

	mu         sync.Mutex
	queue      []*task
	leases     map[string]*lease
	workers    map[string]*workerState
	gone       departed
	jobWorkers map[string]string // job key -> worker name, for timeline attribution
	seq        int
	wseq       int
	lastWorker time.Time // most recent request from any worker
	fallbacks  uint64    // jobs run locally by the fallback path
	draining   bool
	closed     bool

	srv      *http.Server
	ln       net.Listener
	reapStop chan struct{}
	reapDone chan struct{}
}

var _ expt.Executor = (*Coordinator)(nil)

// NewCoordinator builds a coordinator around cfg. Call Start before
// submitting jobs.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.HeartbeatMiss <= 0 {
		cfg.HeartbeatMiss = 4
	}
	if cfg.WaitMS <= 0 {
		cfg.WaitMS = 100
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	evict := cfg.EvictAfter
	if evict == 0 {
		// Default: long enough that campaigns with fast test heartbeats
		// never lose a crashed worker's counters mid-run, short enough
		// that a long-lived coordinator's /workers view stays honest.
		evict = 60 * cfg.Heartbeat
		if evict < time.Minute {
			evict = time.Minute
		}
	}
	c := &Coordinator{
		cfg:        cfg,
		hbEvery:    cfg.Heartbeat,
		hbMiss:     cfg.HeartbeatMiss,
		waitMS:     cfg.WaitMS,
		evictAfter: evict,
		brkCool:    cfg.BreakerCooldown,
		leases:     map[string]*lease{},
		workers:    map[string]*workerState{},
		jobWorkers: map[string]string{},
		lastWorker: time.Now(),
		reapStop:   make(chan struct{}),
		reapDone:   make(chan struct{}),
	}
	pcfg := cfg.Pool
	// Lease reclaim is the distributed timeout: it fails the attempt AND
	// retires the queue entry, so the pool-level abandonment timeout must
	// stay off or a slow lease would be double-issued.
	pcfg.Timeout = 0
	c.pool = expt.NewPool(pcfg)
	c.pool.SetRun(c.runRemote)
	c.localRun = func(j expt.Job) (res *expt.JobResult, host time.Duration, err error) {
		defer func() {
			if r := recover(); r != nil {
				res, err = nil, fmt.Errorf("panic: %v", r)
			}
		}()
		start := time.Now()
		res, err = expt.RunJob(j, cfg.Pool.Telemetry)
		return res, time.Since(start), err
	}
	return c
}

// SetLocalRun replaces the local-fallback execution seam (tests only).
func (c *Coordinator) SetLocalRun(run func(expt.Job) (*expt.JobResult, time.Duration, error)) {
	c.localRun = run
}

// logf emits a degraded-mode notice when the coordinator has a logger.
func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// jnl is the campaign journal shared with the embedded pool (nil-safe:
// a nil writer swallows every emission).
func (c *Coordinator) jnl() *journal.Writer { return c.cfg.Pool.Journal }

// Prefetch, Get, Results and Stats make the coordinator an expt.Executor.
func (c *Coordinator) Prefetch(jobs []expt.Job) { c.pool.Prefetch(jobs) }

// Get returns j's result, leasing it to a worker as one becomes free.
func (c *Coordinator) Get(j expt.Job) (*expt.JobResult, error) { return c.pool.Get(j) }

// Results returns every completed job, sorted by key.
func (c *Coordinator) Results() []expt.Completed { return c.pool.Results() }

// Stats snapshots the embedded pool's counters.
func (c *Coordinator) Stats() expt.PoolStats { return c.pool.Stats() }

// runRemote is the pool's execution backend: enqueue the attempt and wait
// for a worker to lease, run, and report it (or for its lease to be
// reclaimed, which surfaces as a retryable error).
func (c *Coordinator) runRemote(j expt.Job) (*expt.JobResult, time.Duration, error) {
	t := &task{key: j.Key(), job: j, done: make(chan taskOutcome, 1)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, 0, fmt.Errorf("dist: coordinator closed before job %.12s could run", t.key)
	}
	c.queue = append(c.queue, t)
	c.mu.Unlock()
	o := <-t.done
	return o.res, o.host, o.err
}

// Start listens on addr (":0" for ephemeral), serves the protocol in a
// background goroutine, and begins lease reaping. Returns the bound
// address for workers to -connect to.
func (c *Coordinator) Start(addr string) (string, error) {
	var handler http.Handler
	mux := http.NewServeMux()
	mux.HandleFunc(PathHello, c.handleHello)
	mux.HandleFunc(PathLease, c.handleLease)
	mux.HandleFunc(PathHeartbeat, c.handleHeartbeat)
	mux.HandleFunc(PathResult, c.handleResult)
	handler = mux
	if c.cfg.Faults != nil {
		in, err := netfault.New(*c.cfg.Faults)
		if err != nil {
			return "", fmt.Errorf("dist: %w", err)
		}
		c.faults = in
		handler = in.Handler(mux)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("dist: listen %s: %w", addr, err)
	}
	c.ln = ln
	c.srv = &http.Server{Handler: handler}
	go func() { _ = c.srv.Serve(ln) }()
	go c.reap()
	return ln.Addr().String(), nil
}

// Addr returns the bound address after Start.
func (c *Coordinator) Addr() string {
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// Drain marks the campaign complete: every subsequent lease request is
// answered with StatusDrain so workers exit cleanly. Call once all Gets
// have returned. The first Drain also journals the netfault injection
// summary — the campaign's faults are final once no more work can run.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	already := c.draining
	c.draining = true
	c.mu.Unlock()
	if already {
		return
	}
	if rep := c.faults.Report(); rep.Injections > 0 {
		classes := make([]string, 0, len(rep.ByClass))
		for class := range rep.ByClass {
			classes = append(classes, class)
		}
		sort.Strings(classes)
		for _, class := range classes {
			c.jnl().Emit(journal.Event{
				Kind: journal.KindNetFault, Detail: class, Count: rep.ByClass[class],
			})
		}
	}
}

// Close drains, stops the reaper and the server, and fails any queued or
// leased attempts so no pool goroutine is left waiting.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.draining = true
	c.closed = true
	queued := c.queue
	c.queue = nil
	for _, l := range c.leases {
		l.t.done <- taskOutcome{err: fmt.Errorf("dist: coordinator closed with lease %s outstanding on worker %s", l.id, l.worker)}
	}
	c.leases = map[string]*lease{}
	c.mu.Unlock()
	for _, t := range queued {
		t.done <- taskOutcome{err: fmt.Errorf("dist: coordinator closed before job %.12s was leased", t.key)}
	}
	close(c.reapStop)
	<-c.reapDone
	if c.srv != nil {
		return c.srv.Close()
	}
	return nil
}

// Workers snapshots per-worker lease accounting for the live
// introspection server, sorted by worker id. Only live workers appear;
// evicted ones are folded into DistStats' departed aggregate.
func (c *Coordinator) Workers() []telemetry.WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]telemetry.WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, telemetry.WorkerStatus{
			ID:               w.id,
			Name:             w.name,
			Inflight:         w.inflight,
			Leases:           w.leases,
			Results:          w.results,
			Failures:         w.failures,
			Reclaims:         w.reclaims,
			CacheHits:        w.cacheHits,
			Discards:         w.discards,
			Breaker:          w.brk.String(),
			BreakerTrips:     w.brk.trips,
			SecondsSinceSeen: time.Since(w.lastSeen).Seconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// DistStats snapshots the coordinator-level degraded-mode accounting:
// live/departed fleet size, aggregate counters surviving eviction, local
// fallback activity, and the coordinator-side fault injector's report.
func (c *Coordinator) DistStats() telemetry.DistStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := telemetry.DistStats{
		WorkersLive:     len(c.workers),
		WorkersDeparted: c.gone.count,
		FallbackRuns:    c.fallbacks,
		CacheHits:       c.gone.cacheHits,
		Discards:        c.gone.discards,
		Reclaims:        c.gone.reclaims,
		BreakerTrips:    c.gone.trips,
	}
	for _, w := range c.workers {
		st.CacheHits += w.cacheHits
		st.Discards += w.discards
		st.Reclaims += w.reclaims
		st.BreakerTrips += w.brk.trips
	}
	if rep := c.faults.Report(); rep.Injections > 0 {
		st.NetfaultInjections = rep.ByClass
	}
	return st
}

// Fleet snapshots the fleet-level merged telemetry for the live
// introspection server's /fleet endpoint and the fleet_* OpenMetrics
// families: one row per live worker (accepted results, host cost,
// simulated cycles, shipped trace volume) plus a synthetic row carrying
// the departed aggregate so totals survive eviction.
func (c *Coordinator) Fleet() telemetry.FleetStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var fs telemetry.FleetStats
	for _, w := range c.workers {
		fs.Workers = append(fs.Workers, telemetry.FleetWorker{
			ID: w.id, Name: w.name,
			Jobs: w.results, CacheHits: w.cacheHits, HostMS: w.hostMS,
			SimCycles: w.simCycles, TraceEvents: w.traceEvents, TraceDropped: w.traceDropped,
		})
	}
	sort.Slice(fs.Workers, func(i, j int) bool { return fs.Workers[i].ID < fs.Workers[j].ID })
	if c.gone.count > 0 {
		fs.Workers = append(fs.Workers, telemetry.FleetWorker{
			ID: "departed", Name: fmt.Sprintf("%d evicted worker(s)", c.gone.count),
			Jobs: c.gone.results, CacheHits: c.gone.cacheHits, HostMS: c.gone.hostMS,
			SimCycles: c.gone.simCycles, TraceEvents: c.gone.traceEvents, TraceDropped: c.gone.traceDropped,
		})
	}
	return fs.Totaled()
}

// JobWorkers snapshots which worker delivered each accepted job result
// (job key -> worker name), for per-worker timeline attribution. Jobs
// run by the local-fallback path are absent and render as "local".
func (c *Coordinator) JobWorkers() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.jobWorkers))
	for k, v := range c.jobWorkers {
		out[k] = v
	}
	return out
}

// reap reclaims dead leases: heartbeat silence for hbMiss intervals, or
// total lease age beyond LeaseTimeout. The reclaimed attempt fails with a
// "timed out" error, so expt.ErrClass files it with local timeouts and
// the pool re-issues it (bounded by Retries, spaced by Backoff).
func (c *Coordinator) reap() {
	defer close(c.reapDone)
	tick := time.NewTicker(c.hbEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.reapStop:
			return
		case now := <-tick.C:
			c.mu.Lock()
			for id, l := range c.leases {
				var err error
				if silent := now.Sub(l.lastBeat); silent > time.Duration(c.hbMiss)*c.hbEvery {
					err = fmt.Errorf("lease %s: worker %s heartbeat lost; lease timed out after %s silence (re-issuing)",
						id, l.worker, silent.Round(time.Millisecond))
				} else if c.cfg.LeaseTimeout > 0 && now.Sub(l.granted) > c.cfg.LeaseTimeout {
					err = fmt.Errorf("lease %s: job %.12s on worker %s timed out after %s (lease abandoned)",
						id, l.t.key, l.worker, c.cfg.LeaseTimeout)
				}
				if err == nil {
					continue
				}
				delete(c.leases, id)
				c.jnl().Emit(journal.Event{
					Kind: journal.KindLeaseReclaim, Key: l.t.key,
					Worker: l.worker, Detail: id, Err: err.Error(),
				})
				if w := c.workers[l.worker]; w != nil {
					w.inflight--
					w.reclaims++
					if w.brk.failure(now, c.cfg.BreakerFailures) {
						c.logf("dist: breaker open for worker %s (%s): %d consecutive failures/reclaims", w.id, w.name, w.brk.fails)
						c.jnl().Emit(journal.Event{
							Kind: journal.KindBreakerTrip, Worker: w.id,
							Detail: w.name, Count: uint64(w.brk.fails),
						})
					}
				}
				l.t.done <- taskOutcome{err: err}
			}
			c.evictSilent(now)
			fallback := c.takeFallback(now)
			c.mu.Unlock()
			for _, t := range fallback {
				go c.runFallback(t)
			}
		}
	}
}

// evictSilent removes workers that hold no leases and have been silent
// past EvictAfter from the live fleet view, folding their counters into
// the departed aggregate so campaign totals survive. Called under c.mu.
func (c *Coordinator) evictSilent(now time.Time) {
	if c.evictAfter <= 0 {
		return
	}
	for id, w := range c.workers {
		if w.inflight > 0 || now.Sub(w.lastSeen) <= c.evictAfter {
			continue
		}
		delete(c.workers, id)
		c.gone.count++
		c.gone.leases += w.leases
		c.gone.results += w.results
		c.gone.failures += w.failures
		c.gone.reclaims += w.reclaims
		c.gone.cacheHits += w.cacheHits
		c.gone.discards += w.discards
		c.gone.trips += w.brk.trips
		c.gone.hostMS += w.hostMS
		c.gone.simCycles += w.simCycles
		c.gone.traceEvents += w.traceEvents
		c.gone.traceDropped += w.traceDropped
		c.logf("dist: evicted worker %s (%s) after %s silence (leases=%d results=%d)",
			w.id, w.name, now.Sub(w.lastSeen).Round(time.Second), w.leases, w.results)
		c.jnl().Emit(journal.Event{Kind: journal.KindWorkerEvict, Worker: w.id, Detail: w.name})
	}
}

// takeFallback pops the queue for local execution when the fleet has
// been silent past the LocalFallback deadline while jobs are stuck
// queued with no leases outstanding. Called under c.mu; the caller runs
// the returned tasks outside the lock.
func (c *Coordinator) takeFallback(now time.Time) []*task {
	if c.cfg.LocalFallback <= 0 || len(c.queue) == 0 || len(c.leases) > 0 {
		return nil
	}
	if now.Sub(c.lastWorker) <= c.cfg.LocalFallback {
		return nil
	}
	tasks := c.queue
	c.queue = nil
	c.fallbacks += uint64(len(tasks))
	c.logf("dist: no worker contact for %s; running %d queued job(s) locally on the coordinator",
		now.Sub(c.lastWorker).Round(time.Second), len(tasks))
	c.jnl().Emit(journal.Event{Kind: journal.KindLocalFallback, Count: uint64(len(tasks))})
	return tasks
}

// runFallback executes one queued task on the coordinator itself through
// the same RunJob path a worker would use (degraded mode: the fleet never
// showed up or vanished entirely).
func (c *Coordinator) runFallback(t *task) {
	res, host, err := c.localRun(t.job)
	t.done <- taskOutcome{res: res, host: host, err: err}
}

// decode parses a JSON request body, answering 400 on malformed input.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleHello(w http.ResponseWriter, r *http.Request) {
	var req Hello
	if !decode(w, r, &req) {
		return
	}
	if req.Proto != Proto {
		reply(w, HelloReply{OK: false, Reason: fmt.Sprintf(
			"protocol mismatch: worker speaks %q, coordinator %q", req.Proto, Proto)})
		return
	}
	name := req.Name
	if name == "" {
		name = "anonymous"
	}
	c.mu.Lock()
	c.wseq++
	id := fmt.Sprintf("w%03d", c.wseq)
	c.workers[id] = &workerState{id: id, name: name, lastSeen: time.Now()}
	c.lastWorker = time.Now()
	c.mu.Unlock()
	c.jnl().Emit(journal.Event{Kind: journal.KindWorkerJoin, Worker: id, Detail: name})
	rep := HelloReply{
		OK:          true,
		WorkerID:    id,
		Tool:        c.cfg.Tool,
		Grid:        c.cfg.Grid,
		HeartbeatMS: c.hbEvery.Milliseconds(),
	}
	if t := c.cfg.Pool.Telemetry; t != nil {
		rep.Telemetry = &TelemetryOptions{
			SampleEvery: t.SampleEvery, MaxRows: t.MaxRows, TraceEvents: t.TraceEvents,
		}
	}
	reply(w, rep)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decode(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.workers[req.WorkerID]
	if ws == nil {
		http.Error(w, "unknown worker (hello first)", http.StatusConflict)
		return
	}
	now := time.Now()
	ws.lastSeen = now
	c.lastWorker = now
	if ok, wait := ws.brk.allow(now, c.brkCool); !ok {
		// Quarantined: answer with a wait sized to the remaining cooldown
		// (or one poll interval while a half-open probe is outstanding) so
		// the worker paces itself without being drained.
		ms := wait.Milliseconds()
		if ms <= 0 || ms > c.waitMS {
			ms = c.waitMS
		}
		reply(w, LeaseReply{Status: StatusWait, WaitMS: ms})
		return
	}
	if len(c.queue) == 0 {
		if c.draining {
			reply(w, LeaseReply{Status: StatusDrain})
			return
		}
		reply(w, LeaseReply{Status: StatusWait, WaitMS: c.waitMS})
		return
	}
	t := c.queue[0]
	c.queue = c.queue[1:]
	c.seq++
	l := &lease{
		id:       fmt.Sprintf("lease-%06d", c.seq),
		t:        t,
		worker:   req.WorkerID,
		granted:  now,
		lastBeat: now,
	}
	c.leases[l.id] = l
	ws.leases++
	ws.inflight++
	ws.brk.granted()
	c.jnl().Emit(journal.Event{
		Kind: journal.KindJobLease, Key: t.key, Worker: req.WorkerID, Detail: l.id,
	})
	job := t.job
	reply(w, LeaseReply{Status: StatusJob, LeaseID: l.id, Key: t.key, Job: &job})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decode(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ws := c.workers[req.WorkerID]; ws != nil {
		ws.lastSeen = time.Now()
		c.lastWorker = ws.lastSeen
	}
	l := c.leases[req.LeaseID]
	if l == nil || l.worker != req.WorkerID {
		reply(w, HeartbeatReply{OK: false, Reason: "lease not held (reclaimed or resolved)"})
		return
	}
	l.lastBeat = time.Now()
	reply(w, HeartbeatReply{OK: true})
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req ResultRequest
	if !decode(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	ws := c.workers[req.WorkerID]
	if ws != nil {
		ws.lastSeen = now
		c.lastWorker = now
	}
	l := c.leases[req.LeaseID]
	if l == nil || l.worker != req.WorkerID {
		// The lease was reclaimed (and possibly re-issued) before this
		// result arrived; the late result is discarded so the campaign
		// has exactly one authoritative execution per attempt.
		if ws != nil {
			ws.discards++
		}
		c.jnl().Emit(journal.Event{
			Kind: journal.KindJobReport, Key: req.Key, Worker: req.WorkerID,
			Status: "discarded", Detail: req.LeaseID, HostMS: req.HostMS,
		})
		reply(w, ResultReply{OK: false, Reason: "lease not held; result discarded"})
		return
	}
	delete(c.leases, req.LeaseID)
	if ws != nil {
		ws.inflight--
	}
	name := req.WorkerID
	if ws != nil {
		name = fmt.Sprintf("%s (%s)", ws.name, ws.id)
	}
	o := taskOutcome{host: time.Duration(req.HostMS * float64(time.Millisecond))}
	switch {
	case req.Err != "":
		o.err = fmt.Errorf("worker %s: %s", name, req.Err)
	case req.Key != l.t.key:
		o.err = fmt.Errorf("worker %s: result key %.12s does not match lease key %.12s (schema skew?)",
			name, req.Key, l.t.key)
	case req.Result == nil:
		o.err = fmt.Errorf("worker %s: result missing from report", name)
	default:
		o.res = req.Result
	}
	status := "ran"
	switch {
	case o.err != nil:
		status = "failed"
	case req.Cached:
		status = "cached"
	}
	if ws != nil {
		if o.err != nil {
			ws.failures++
			if ws.brk.failure(now, c.cfg.BreakerFailures) {
				c.logf("dist: breaker open for worker %s (%s): %d consecutive failures", ws.id, ws.name, ws.brk.fails)
				c.jnl().Emit(journal.Event{
					Kind: journal.KindBreakerTrip, Worker: ws.id,
					Detail: ws.name, Count: uint64(ws.brk.fails),
				})
			}
		} else {
			ws.results++
			if req.Cached {
				ws.cacheHits++
			}
			ws.brk.success()
			// Fleet-observability accounting and timeline attribution:
			// only accepted results count, so utilization reflects work
			// the campaign actually used.
			ws.hostMS += req.HostMS
			ws.simCycles += o.res.WallCycles
			if o.res.Telem != nil {
				ws.traceEvents += uint64(len(o.res.Telem.Trace))
				ws.traceDropped += o.res.Telem.TraceDropped
			}
			c.jobWorkers[req.Key] = ws.name
		}
	}
	jev := journal.Event{
		Kind: journal.KindJobReport, Key: req.Key, Worker: req.WorkerID,
		Status: status, Detail: req.LeaseID, HostMS: req.HostMS,
	}
	if o.err != nil {
		jev.Err = expt.ErrClass(o.err)
	}
	c.jnl().Emit(jev)
	l.t.done <- o
	reply(w, ResultReply{OK: true})
}
