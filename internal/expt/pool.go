package expt

import (
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload/qps"
)

// Getter is how figure builders obtain results: Prefetch schedules a batch
// for parallel execution, Get blocks until one job's result is ready
// (scheduling it first if nobody has). A Pool is the canonical Getter.
type Getter interface {
	Prefetch(jobs []Job)
	Get(j Job) (*JobResult, error)
}

// PoolStats summarizes a pool's lifetime activity.
type PoolStats struct {
	// Submitted counts distinct jobs; Deduped counts submissions that
	// merged into an already-submitted job.
	Submitted int `json:"submitted"`
	Deduped   int `json:"deduped"`
	// Executed ran to completion on this pool; Cached came from the
	// manifest; Failed exhausted their attempts.
	Executed int `json:"executed"`
	Cached   int `json:"cached"`
	Failed   int `json:"failed"`
	// Retries counts failed attempts that were retried.
	Retries int `json:"retries"`
}

// PoolConfig tunes a Pool.
type PoolConfig struct {
	// Workers bounds concurrently-running jobs (≤1 = sequential).
	Workers int
	// Timeout bounds one attempt's host wall-clock time (0 = unbounded).
	// A timed-out attempt's simulation goroutines are abandoned, not
	// killed: harness.Run has no cancellation, so the pool just stops
	// waiting and (if attempts remain) starts a fresh attempt.
	Timeout time.Duration
	// Retries is how many additional attempts a failed job gets.
	Retries int
	// Backoff spaces a failed job's retries in host time, with the
	// geometric-plus-jitter policy shared with internal/dist's
	// degraded-mode retry paths. The zero value retries immediately; a
	// distributed campaign sets it so a job whose worker vanished is not
	// re-issued into the same instant the fleet is churning.
	Backoff Backoff
	// Manifest, when non-nil, serves completed jobs and records new ones.
	Manifest *Manifest
	// Progress, when non-nil, observes every job completion (job-result,
	// Status ran/cached/failed, with Done/Total), every retried attempt
	// (job-retry, Status retry) and every manifest-error — the same
	// event values the journal receives. Called concurrently from worker
	// goroutines; the pool serializes calls.
	Progress func(journal.Event)
	// Telemetry, when non-nil, arms per-job telemetry recording: every
	// executed job runs with a fresh recorder, its snapshot is checked
	// for cycle conservation (a violation fails the job) and stored in
	// JobResult.Telem. Job keys are unaffected — telemetry never changes
	// what a run computes.
	Telemetry *telemetry.Options
	// Journal, when non-nil, receives the campaign's job lifecycle
	// (submit/start/retry/result). The pool is the one emission seam for
	// local runs; internal/dist's coordinator shares the same writer and
	// adds fleet-level events around these.
	Journal *journal.Writer
}

// Pool executes jobs on a bounded set of host goroutines, memoizing by job
// key: submitting the same job twice (even concurrently, from different
// figure builders) runs it once. Safe for concurrent use.
type Pool struct {
	cfg PoolConfig
	sem chan struct{}
	// run executes one attempt. The returned duration, when positive,
	// overrides the pool's own wall-clock measurement of the attempt —
	// a network backend reports the worker's actual run time, excluding
	// queue and transport. Swappable in tests and by internal/dist.
	run func(Job) (*JobResult, time.Duration, error)

	mu      sync.Mutex
	entries map[string]*entry
	stats   PoolStats
	done    int
}

type entry struct {
	job      Job
	key      string
	ready    chan struct{}
	res      *JobResult
	err      error
	attempts int
	cached   bool
	host     time.Duration
}

// NewPool returns a pool ready to accept jobs.
func NewPool(cfg PoolConfig) *Pool {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	p := &Pool{
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.Workers),
		entries: map[string]*entry{},
	}
	p.run = func(j Job) (*JobResult, time.Duration, error) {
		r, err := RunJob(j, cfg.Telemetry)
		return r, 0, err
	}
	return p
}

// SetRun replaces the pool's execution backend. internal/dist installs
// its lease dispatcher here; everything else (dedup, manifest, retry,
// progress, stats) is shared, which is what keeps distributed documents
// identical to local ones. Call before the first submission.
func (p *Pool) SetRun(run func(Job) (*JobResult, time.Duration, error)) {
	p.run = run
}

// RunJob executes one job for real: instantiate the workload, cold-boot a
// machine, run. With telem set, the run is profiled and the snapshot must
// conserve cycles. This is the one true execution path — local pool
// workers, internal/dist network workers and cmd/cornucopia all call it,
// so a job computes the same result wherever it runs.
//
// The trailing ints are ignored. They stand where the sweep-kernel,
// sim-engine and memory-path selectors used to be passed, so callers
// written against that signature (RunJob(j, telem, 0, 0, 0)) still
// compile; new callers pass none.
func RunJob(j Job, telem *telemetry.Options, _ ...int) (*JobResult, error) {
	w, err := j.Workload.Instantiate()
	if err != nil {
		return nil, err
	}
	cfg := j.Cfg
	cfg.Trace = nil
	if telem != nil {
		cfg.Telem = telemetry.New(*telem)
		if telem.TraceEvents > 0 {
			// Per-job tracer, exported into the snapshot below. Tracing is
			// passive and Job.Key excludes Trace, so results and manifest
			// identity are unaffected.
			cfg.Trace = trace.New(telem.TraceEvents)
		}
	}
	r, err := harness.Run(w, j.Cond, cfg)
	if err != nil {
		return nil, err
	}
	if q, ok := w.(*qps.QPS); ok {
		r.Messages = q.Messages
		r.MeasureCycles = q.MeasureCycles
	}
	if cfg.Telem.Enabled() {
		snap := cfg.Telem.Snapshot()
		if err := snap.CheckConservation(); err != nil {
			return nil, fmt.Errorf("telemetry: %w", err)
		}
		// The retained ring rides the snapshot, so traces survive
		// manifest resume and distributed result shipping. The ring is
		// deterministic for a given job, so shipped traces are too. The
		// tracer itself is dropped, so a pool does not hold every ring
		// twice.
		snap.Trace, snap.TraceDropped = cfg.Trace.Events(), cfg.Trace.Dropped()
		r.Telem, r.Trace = snap, nil
	}
	return r, nil
}

// Prefetch schedules jobs for execution without waiting for them. The
// whole batch is registered before any of it starts, so every progress
// event's Total counts the batch.
func (p *Pool) Prefetch(jobs []Job) {
	p.submit(jobs...)
}

// Get returns j's result, scheduling it if needed and blocking until done.
func (p *Pool) Get(j Job) (*JobResult, error) {
	e := p.submit(j)[0]
	<-e.ready
	return e.res, e.err
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Completed describes one finished job for reporting.
type Completed struct {
	Key      string
	Result   *JobResult
	Cached   bool
	Attempts int
	Host     time.Duration
}

// Results returns every successfully-completed job so far, sorted by key
// for deterministic reports.
func (p *Pool) Results() []Completed {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Completed
	for _, e := range p.entries {
		select {
		case <-e.ready:
		default:
			continue // still running
		}
		if e.err != nil {
			continue
		}
		out = append(out, Completed{Key: e.key, Result: e.res, Cached: e.cached, Attempts: e.attempts, Host: e.host})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// submit registers jobs under one hold of the pool lock — merging
// duplicates into known jobs, emitting submit events, then completing
// manifest hits — and only then starts the rest (bounded by the worker
// semaphore). It returns each job's entry, in order.
func (p *Pool) submit(jobs ...Job) []*entry {
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = j.Key()
	}
	out := make([]*entry, len(jobs))
	var fresh []*entry
	p.mu.Lock()
	for i, j := range jobs {
		if e, ok := p.entries[keys[i]]; ok {
			p.stats.Deduped++
			out[i] = e
			continue
		}
		e := &entry{job: j, key: keys[i], ready: make(chan struct{})}
		p.entries[e.key] = e
		p.stats.Submitted++
		p.cfg.Journal.Emit(journal.Event{
			Kind: journal.KindJobSubmit, Key: e.key,
			Workload: j.Workload.String(), Condition: j.Cond.Name, Seed: j.Cfg.Seed,
		})
		out[i] = e
		fresh = append(fresh, e)
	}

	// Manifest hits complete immediately, without occupying a worker. The
	// recorded host time of the original run rides along, so slow cells
	// stay visible in resumed documents and on /jobs.
	start := fresh[:0]
	for _, e := range fresh {
		if p.cfg.Manifest != nil {
			if r, host, ok := p.cfg.Manifest.Lookup(e.key); ok {
				e.res, e.cached, e.host = r, true, host
				p.stats.Cached++
				p.finishLocked(e, "cached")
				continue
			}
		}
		start = append(start, e)
	}
	p.mu.Unlock()

	for _, e := range start {
		go func(e *entry) {
			p.sem <- struct{}{}
			defer func() { <-p.sem }()
			p.execute(e)
		}(e)
	}
	return out
}

// ErrClass compresses an attempt error for progress display: a timeout, a
// panic (first line of the message, stack dropped), or a plain error.
func ErrClass(err error) string {
	if err == nil {
		return ""
	}
	msg := err.Error()
	if strings.Contains(msg, "timed out") {
		return "timeout"
	}
	if i := strings.Index(msg, "panic: "); i >= 0 {
		line := msg[i:]
		if j := strings.IndexByte(line, '\n'); j >= 0 {
			line = line[:j]
		}
		if len(line) > 120 {
			line = line[:120]
		}
		return line
	}
	if len(msg) > 120 {
		msg = msg[:120]
	}
	return "error: " + msg
}

// event builds one lifecycle event for e: the value both the journal and
// the progress callback receive.
func (e *entry) event(kind, status string, attempt int, host time.Duration, err error) journal.Event {
	return journal.Event{
		Kind: kind, Key: e.key,
		Workload: e.job.Workload.String(), Condition: e.job.Cond.Name,
		Seed: e.job.Cfg.Seed, Status: status, Attempt: attempt,
		HostMS: float64(host.Microseconds()) / 1e3, Err: ErrClass(err),
	}
}

// emitLocked hands one lifecycle event to the journal and the progress
// callback. Caller holds p.mu, which serializes the callbacks.
func (p *Pool) emitLocked(ev journal.Event) {
	p.cfg.Journal.Emit(ev)
	if p.cfg.Progress != nil {
		p.cfg.Progress(ev)
	}
}

// finishLocked emits the entry's job-result event and closes it, so the
// journal and the callback have seen the result before any waiter
// returns. Caller holds p.mu.
func (p *Pool) finishLocked(e *entry, status string) {
	p.done++
	ev := e.event(journal.KindJobResult, status, e.attempts, e.host, e.err)
	ev.Done, ev.Total = p.done, p.stats.Submitted
	if e.res != nil {
		ev.VCycles = e.res.WallCycles
	}
	p.emitLocked(ev)
	close(e.ready)
}

// execute runs e with retry, panic capture and per-attempt timeout.
func (p *Pool) execute(e *entry) {
	var lastErr error
	for attempt := 0; attempt <= p.cfg.Retries; attempt++ {
		if d := p.cfg.Backoff.Delay(attempt); d > 0 {
			time.Sleep(d)
		}
		p.cfg.Journal.Emit(journal.Event{
			Kind: journal.KindJobStart, Key: e.key, Attempt: attempt + 1,
		})
		start := time.Now()
		res, runHost, err := p.attempt(e.job)
		host := time.Since(start)
		if runHost > 0 {
			host = runHost
		}
		if err == nil {
			// Record before publishing, outside the pool lock (the
			// manifest serializes itself, and marshal of a large result
			// is slow): once Get observes completion, the job is durably
			// on the manifest.
			if p.cfg.Manifest != nil {
				if rerr := p.cfg.Manifest.Record(e.key, res, host); rerr != nil {
					// The run succeeded; a manifest write failure only
					// costs resumability. Surface it as an event, under
					// p.mu like every other emission — callbacks must
					// never run concurrently with each other.
					ev := e.event(journal.KindManifestError, "", attempt+1, host, nil)
					ev.Err = rerr.Error()
					p.mu.Lock()
					p.emitLocked(ev)
					p.mu.Unlock()
				}
			}
			p.mu.Lock()
			e.attempts = attempt + 1
			e.host = host
			e.res = res
			p.stats.Executed++
			p.finishLocked(e, "ran")
			p.mu.Unlock()
			return
		}
		lastErr = err
		p.mu.Lock()
		e.attempts = attempt + 1
		e.host = host
		willRetry := attempt < p.cfg.Retries
		if willRetry {
			p.stats.Retries++
			// Emit while still holding p.mu: finishLocked emits under the
			// lock, so releasing it first would let a retry event race a
			// concurrent completion into the callback.
			p.emitLocked(e.event(journal.KindJobRetry, "retry", attempt+1, host, err))
		}
		p.mu.Unlock()
	}
	p.mu.Lock()
	e.err = fmt.Errorf("expt: job %.12s (%s under %s, seed %d) failed after %d attempt(s): %w",
		e.key, e.job.Workload, e.job.Cond.Name, e.job.Cfg.Seed, e.attempts, lastErr)
	p.stats.Failed++
	p.finishLocked(e, "failed")
	p.mu.Unlock()
}

// attempt runs the job once, converting panics to errors and enforcing the
// per-attempt timeout. The returned duration is the backend's own host
// cost measurement when it has one (see Pool.run), zero otherwise.
func (p *Pool) attempt(j Job) (*JobResult, time.Duration, error) {
	type outcome struct {
		res  *JobResult
		host time.Duration
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: fmt.Errorf("panic: %v\n%s", r, debug.Stack())}
			}
		}()
		res, host, err := p.run(j)
		ch <- outcome{res: res, host: host, err: err}
	}()
	if p.cfg.Timeout <= 0 {
		o := <-ch
		return o.res, o.host, o.err
	}
	timer := time.NewTimer(p.cfg.Timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.res, o.host, o.err
	case <-timer.C:
		return nil, 0, fmt.Errorf("attempt timed out after %s (simulation goroutines abandoned)", p.cfg.Timeout)
	}
}
