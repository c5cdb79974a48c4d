package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist/netfault"
	"repro/internal/expt"
	"repro/internal/journal"
	"repro/internal/telemetry"
)

// ErrCrashed reports that the CrashAfterLease fault-injection hook fired:
// the worker stopped dead mid-lease — no result, no further heartbeats —
// exactly as a killed process would. Tests and the CI smoke use it to
// prove lease reclaim re-issues the job elsewhere.
var ErrCrashed = errors.New("dist: worker crashed by fault-injection hook")

// WorkerConfig tunes one worker process.
type WorkerConfig struct {
	// Connect is the coordinator address (host:port, or a full http://
	// base URL).
	Connect string
	// Name labels this worker in coordinator output ("host:pid" style);
	// identity comes from the coordinator-assigned worker id.
	Name string
	// Parallel is how many leases to hold concurrently (default 1; the
	// coordinator's pool width bounds the fleet-wide total anyway).
	Parallel int
	// MaxJobs stops the worker after reporting that many results
	// (0 = run until drained).
	MaxJobs int
	// HelloTimeout bounds how long the worker retries its opening hello
	// while the coordinator is still coming up (default 10s).
	HelloTimeout time.Duration
	// CrashAfterLease > 0 makes the worker die (see ErrCrashed) upon
	// taking its Nth lease, before running or reporting it.
	CrashAfterLease int
	// Faults, when non-nil, arms worker-side network fault injection on
	// every protocol request (netfault.Transport): drop, delay, duplicate,
	// reorder, reset and throttle, decided deterministically per request.
	Faults *netfault.Spec
	// CachePath, when set, opens a worker-side result cache (an
	// expt.Manifest keyed by job content hash, validated against the
	// campaign's tool/grid at join). Completed keys leased again — e.g. to
	// a worker rejoining after a crash, when the coordinator's retry
	// re-issues a reclaimed job — are replayed from the cache instead of
	// re-executed, reported with Cached=true and the original run's cost.
	CachePath string
	// ReconnectTimeout bounds how long the lease loop retries transport
	// failures (with backoff) before concluding the coordinator is gone
	// and exiting cleanly (default 5s).
	ReconnectTimeout time.Duration
	// Backoff spaces hello/lease/report retries; nil uses a default
	// (100ms base, x2, 25% jitter, capped at 1s and, once joined, at the
	// coordinator's heartbeat interval, so a retrying worker is never
	// silent long enough to be presumed gone).
	Backoff *expt.Backoff
	// Logf, when set, receives progress lines (cmd/worker wires stderr).
	Logf func(format string, args ...any)
	// Observe, when set, receives one job-result event per leased job
	// outcome (ran/cached/failed) for host-side introspection —
	// cmd/worker's -http server chains it into telemetry.Live.Observe.
	// Called from lease-serving goroutines; the receiver must be
	// concurrency-safe.
	Observe func(journal.Event)
}

// Worker pulls leases from a coordinator and runs them through the same
// expt.RunJob path a local pool uses, under the telemetry configuration
// the coordinator dictated at hello.
type Worker struct {
	cfg    WorkerConfig
	base   string
	client *http.Client

	id         string
	hb         time.Duration
	telem      *telemetry.Options
	tool, grid string
	cache      *expt.Manifest
	backoff    expt.Backoff

	// run is the execution seam (tests inject fakes; default expt.RunJob).
	run func(expt.Job) (*expt.JobResult, error)

	reported atomic.Int64
	leaseSeq atomic.Uint64 // last LeaseRequest.Seq issued
	drained  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}

	mu    sync.Mutex
	row   telemetry.FleetWorker // the self-view Fleet reports
	snaps []telemetry.Keyed     // telemetry shipped with results, for -http /metrics
}

// NewWorker builds a worker; call Run to serve.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Parallel <= 0 {
		cfg.Parallel = 1
	}
	if cfg.HelloTimeout <= 0 {
		cfg.HelloTimeout = 10 * time.Second
	}
	if cfg.ReconnectTimeout <= 0 {
		cfg.ReconnectTimeout = 5 * time.Second
	}
	base := cfg.Connect
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	w := &Worker{
		cfg:    cfg,
		base:   strings.TrimRight(base, "/"),
		client: &http.Client{Timeout: 30 * time.Second},
		stop:   make(chan struct{}),
		row:    telemetry.FleetWorker{Name: cfg.Name},
	}
	if cfg.Backoff != nil {
		w.backoff = *cfg.Backoff
	} else {
		w.backoff = expt.Backoff{
			Base: 100 * time.Millisecond, Factor: 2, Max: time.Second, Jitter: 0.25,
		}
		if cfg.Faults != nil {
			w.backoff.Seed = cfg.Faults.Seed
		}
	}
	w.run = func(j expt.Job) (*expt.JobResult, error) {
		return expt.RunJob(j, w.telem)
	}
	return w
}

// SetRun replaces the job execution seam (tests only).
func (w *Worker) SetRun(run func(expt.Job) (*expt.JobResult, error)) { w.run = run }

// Fleet returns the worker's self-view: a one-row fleet counted the
// coordinator's way — leases taken, accepted results as jobs (with their
// host cost, simulated wall cycles and shipped trace volume), failed
// results as failures, and results the coordinator rejected as discards.
// Safe for concurrent use.
func (w *Worker) Fleet() telemetry.FleetStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return telemetry.FleetStats{Workers: []telemetry.FleetWorker{w.row}}.Totaled()
}

// Snapshots returns the telemetry snapshots of every job this worker has
// completed so far, keyed by job for deterministic merging — the
// metrics source behind cmd/worker's -http server. Safe for concurrent
// use.
func (w *Worker) Snapshots() []telemetry.Keyed {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]telemetry.Keyed(nil), w.snaps...)
}

// observe reports one job outcome to the configured Observe hook and
// retains its telemetry snapshot for Snapshots.
func (w *Worker) observe(rep LeaseReply, res ResultRequest, status string) {
	if res.Result != nil && res.Result.Telem != nil {
		w.mu.Lock()
		w.snaps = append(w.snaps, telemetry.Keyed{Key: res.Key, Snap: res.Result.Telem})
		w.mu.Unlock()
	}
	if w.cfg.Observe == nil {
		return
	}
	ev := journal.Event{Kind: journal.KindJobResult, Key: res.Key, Status: status, HostMS: res.HostMS, Err: res.Err}
	if rep.Job != nil {
		ev.Workload = rep.Job.Workload.String()
		ev.Condition = rep.Job.Cond.Name
		ev.Seed = rep.Job.Cfg.Seed
	}
	w.cfg.Observe(ev)
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// post sends one protocol request and decodes the reply into out.
func (w *Worker) post(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("dist: encoding %s request: %w", path, err)
	}
	resp, err := w.client.Post(w.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("dist: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dist: %s: coordinator answered %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("dist: decoding %s reply: %w", path, err)
	}
	return nil
}

// hello announces the worker, retrying while the coordinator comes up,
// and adopts the campaign configuration from the reply.
func (w *Worker) hello() error {
	req := Hello{Proto: Proto, Name: w.cfg.Name}
	deadline := time.Now().Add(w.cfg.HelloTimeout)
	for attempt := 1; ; attempt++ {
		var rep HelloReply
		err := w.post(PathHello, req, &rep)
		if err == nil && !rep.OK {
			return fmt.Errorf("dist: coordinator refused worker: %s", rep.Reason)
		}
		if err == nil {
			w.id = rep.WorkerID
			w.tool, w.grid = rep.Tool, rep.Grid
			w.hb = time.Duration(rep.HeartbeatMS) * time.Millisecond
			if w.hb <= 0 {
				w.hb = time.Second
			}
			if w.cfg.Backoff == nil && w.backoff.Max > w.hb {
				w.backoff.Max = w.hb
			}
			w.mu.Lock()
			w.row.ID = w.id
			w.mu.Unlock()
			if rep.Telemetry != nil {
				w.telem = &telemetry.Options{
					SampleEvery: rep.Telemetry.SampleEvery, MaxRows: rep.Telemetry.MaxRows,
					TraceEvents: rep.Telemetry.TraceEvents,
				}
			}
			w.logf("worker %s joined %s campaign %q (heartbeat=%s)",
				w.id, rep.Tool, rep.Grid, w.hb)
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dist: coordinator unreachable after %s: %w", w.cfg.HelloTimeout, err)
		}
		if !w.backoff.Sleep(attempt, w.stop) {
			return fmt.Errorf("dist: worker stopped while joining: %w", err)
		}
	}
}

// Run serves leases until the coordinator drains the campaign, MaxJobs is
// reached, or a fatal error (protocol refusal, coordinator vanishing,
// crash hook) stops the worker.
func (w *Worker) Run() error {
	if w.cfg.Faults != nil {
		in, err := netfault.New(*w.cfg.Faults)
		if err != nil {
			return fmt.Errorf("dist: %w", err)
		}
		w.client.Transport = netfault.NewTransport(in, nil)
	}
	if err := w.hello(); err != nil {
		return err
	}
	if w.cfg.CachePath != "" {
		m, err := expt.OpenManifestFor(w.cfg.CachePath, expt.ManifestMeta{Tool: w.tool, Grid: w.grid})
		if err != nil {
			// A broken or mismatched cache must not stop a healthy worker;
			// run uncached.
			w.logf("worker %s: result cache %s unusable (%v); running uncached", w.id, w.cfg.CachePath, err)
		} else {
			w.cache = m
			defer m.Close()
			if n := m.Len(); n > 0 {
				w.logf("worker %s: result cache %s holds %d completed job(s)", w.id, w.cfg.CachePath, n)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, w.cfg.Parallel)
	for i := 0; i < w.cfg.Parallel; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- w.serve()
		}()
	}
	wg.Wait()
	if w.drained.Load() {
		// Logged once every loop has finished, so the counts include the
		// reports still in flight when the drain reply arrived.
		fs := w.Fleet()
		w.logf("worker %s drained after %d job(s) (%d from cache)", w.id, fs.Jobs, fs.CacheHits)
	}
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// halt stops every serving goroutine and heartbeater (drain, crash hook,
// MaxJobs, a vanished coordinator).
func (w *Worker) halt() { w.stopOnce.Do(func() { close(w.stop) }) }

func (w *Worker) stopped() bool {
	select {
	case <-w.stop:
		return true
	default:
		return false
	}
}

// serve is one lease loop: lease, run, report, repeat. Transport failures
// (dropped requests, injected resets, a coordinator restarting) are
// retried with backoff; only ReconnectTimeout of unbroken failure is
// treated as the campaign's end.
func (w *Worker) serve() error {
	var fails int
	var firstFail time.Time
	var seq uint64 // the outstanding request's number, reused on retry
	for {
		if w.stopped() {
			return nil
		}
		if seq == 0 {
			seq = w.leaseSeq.Add(1)
		}
		var rep LeaseReply
		if err := w.post(PathLease, LeaseRequest{WorkerID: w.id, Seq: seq}, &rep); err != nil {
			fails++
			if fails == 1 {
				firstFail = time.Now()
			}
			// The coordinator exits as soon as its document is written, so
			// losing it for good after joining is the normal end of a
			// campaign from the worker's side — but one failed request is
			// just as likely a fault in the path, so keep trying first.
			if time.Since(firstFail) > w.cfg.ReconnectTimeout {
				w.logf("worker %s: coordinator gone after %s of lease retries (%v); exiting",
					w.id, w.cfg.ReconnectTimeout, err)
				w.halt()
				return nil
			}
			if !w.backoff.Sleep(fails, w.stop) {
				return nil
			}
			continue
		}
		fails, seq = 0, 0
		switch rep.Status {
		case StatusDrain:
			// One drain reply ends the whole worker: its sibling loops
			// stop polling instead of outliving the coordinator.
			w.drained.Store(true)
			w.halt()
			return nil
		case StatusWait:
			wait := time.Duration(rep.WaitMS) * time.Millisecond
			if wait <= 0 {
				wait = 100 * time.Millisecond
			}
			select {
			case <-w.stop:
				return nil
			case <-time.After(wait):
			}
			continue
		case StatusJob:
			// fall through
		default:
			return fmt.Errorf("dist: unknown lease status %q", rep.Status)
		}
		w.mu.Lock()
		w.row.Leases++
		n := w.row.Leases
		w.mu.Unlock()
		if w.cfg.CrashAfterLease > 0 && int(n) >= w.cfg.CrashAfterLease {
			// Die holding the lease: no result, no heartbeat — the
			// coordinator must notice via heartbeat timeout and re-issue.
			w.logf("worker %s: crash hook fired on lease %s", w.id, rep.LeaseID)
			w.halt()
			return ErrCrashed
		}
		w.execute(rep)
		if w.cfg.MaxJobs > 0 && int(w.reported.Load()) >= w.cfg.MaxJobs {
			w.logf("worker %s reached max-jobs=%d", w.id, w.cfg.MaxJobs)
			w.halt()
			return nil
		}
	}
}

// execute runs one leased job and reports the outcome, renewing the
// lease from the start until the report returns: report retries a failed
// POST only after a backoff, and a lease silent for longer than the
// coordinator's heartbeat budget is reclaimed, its late result discarded.
// Worker-side panics are captured into the error string with the same
// "panic: " prefix the local pool uses, so expt.ErrClass classifies them
// identically.
func (w *Worker) execute(rep LeaseReply) {
	hbDone := make(chan struct{})
	defer close(hbDone)
	go w.heartbeat(rep.LeaseID, hbDone)
	res := ResultRequest{WorkerID: w.id, LeaseID: rep.LeaseID, Key: rep.Key}
	if rep.Job == nil {
		res.Err = "lease granted without a job body"
		w.observe(rep, res, "failed")
		w.report(res)
		return
	}
	job := *rep.Job
	if derived := job.Key(); derived != rep.Key {
		// Coordinator and worker disagree on what this job IS; running it
		// would poison the campaign with a result filed under the wrong
		// cell.
		res.Err = fmt.Sprintf("job schema skew: leased key %.12s, worker derives %.12s", rep.Key, derived)
		w.observe(rep, res, "failed")
		w.report(res)
		return
	}
	if w.cache != nil {
		if out, host, ok := w.cache.Lookup(rep.Key); ok {
			// Replay from the local result cache: a rejoining worker serves
			// keys it already completed without re-executing, reporting the
			// original run's cost exactly as a pool manifest hit does.
			res.Result = out
			res.HostMS = float64(host) / float64(time.Millisecond)
			res.Cached = true
			w.logf("worker %s: lease %s served from cache (key %.12s)", w.id, rep.LeaseID, rep.Key)
			w.observe(rep, res, "cached")
			w.report(res)
			return
		}
	}
	start := time.Now()
	out, err := w.runCaptured(job)
	host := time.Since(start)
	res.HostMS = float64(host) / float64(time.Millisecond)
	if err != nil {
		res.Err = err.Error()
		w.observe(rep, res, "failed")
	} else {
		res.Result = out
		if w.cache != nil {
			if cerr := w.cache.Record(rep.Key, out, host); cerr != nil {
				w.logf("worker %s: result cache write failed (%v); continuing uncached", w.id, cerr)
			}
		}
		w.observe(rep, res, "ran")
	}
	w.report(res)
}

// runCaptured invokes the run seam with panic containment.
func (w *Worker) runCaptured(j expt.Job) (out *expt.JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	return w.run(j)
}

// heartbeat renews the lease until done closes. A not-OK reply means the
// lease was reclaimed; the run finishes anyway and its report is
// discarded coordinator-side.
func (w *Worker) heartbeat(leaseID string, done <-chan struct{}) {
	t := time.NewTicker(w.hb)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-w.stop:
			return
		case <-t.C:
			var rep HeartbeatReply
			if err := w.post(PathHeartbeat, HeartbeatRequest{WorkerID: w.id, LeaseID: leaseID}, &rep); err != nil {
				continue // transient; result delivery is what matters
			}
			if !rep.OK {
				w.logf("worker %s: lease %s reclaimed (%s)", w.id, leaseID, rep.Reason)
				return
			}
		}
	}
}

// report delivers a result with a little persistence (backoff-spaced
// retries); a lost report is recovered by lease reclaim, so giving up is
// safe. A delivered report lands in the self-view as the coordinator
// files it: a job when accepted, a failure when it carries an error, a
// discard when the coordinator rejected it.
func (w *Worker) report(res ResultRequest) {
	const attempts = 4
	for attempt := 1; attempt <= attempts; attempt++ {
		var rep ResultReply
		if err := w.post(PathResult, res, &rep); err == nil {
			w.mu.Lock()
			switch {
			case !rep.OK:
				w.row.Discards++
			case res.Result == nil:
				w.row.Failures++
			default:
				w.row.AddJob(res.HostMS, res.Cached, res.Result.WallCycles, res.Result.Telem)
			}
			w.mu.Unlock()
			if !rep.OK {
				w.logf("worker %s: result for lease %s discarded (%s)", w.id, res.LeaseID, rep.Reason)
			}
			w.reported.Add(1)
			return
		}
		if attempt < attempts && !w.backoff.Sleep(attempt, w.stop) {
			break
		}
	}
	w.logf("worker %s: could not deliver result for lease %s", w.id, res.LeaseID)
}
