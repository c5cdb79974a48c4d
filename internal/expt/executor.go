package expt

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Executor is the seam between campaign drivers (cmd/sweep, cmd/chaos)
// and job execution. A Pool executes locally on bounded host goroutines;
// internal/dist's Coordinator fans the same grid out to network workers.
// Both produce identical Results for identical grids, so documents built
// over an Executor are independent of where the jobs actually ran.
type Executor interface {
	Getter
	// Results returns every successfully-completed job so far, sorted by
	// key for deterministic reports.
	Results() []Completed
	// Stats snapshots the executor's lifetime counters.
	Stats() PoolStats
}

var (
	_ Executor = (*Pool)(nil)
	_ Executor = (*Planner)(nil)
)

// Planner is the -dry-run Executor: it records every job the figure
// builders request without executing any. Get hands back a synthetic
// result with positive cycles and traffic so the builders run their whole
// grids to the end (geomean folds reject zeros); the tables they produce
// are garbage and must not be shown — the point is the job set, read back
// with Jobs.
type Planner struct {
	mu      sync.Mutex
	jobs    map[string]Job
	submits int
}

// NewPlanner returns an empty planner.
func NewPlanner() *Planner {
	return &Planner{jobs: map[string]Job{}}
}

func (p *Planner) add(j Job) {
	key := j.Key()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.submits++
	if _, ok := p.jobs[key]; !ok {
		p.jobs[key] = j
	}
}

// Prefetch records the batch without scheduling anything.
func (p *Planner) Prefetch(jobs []Job) {
	for _, j := range jobs {
		p.add(j)
	}
}

// Get records j and returns a synthetic result immediately. Its cycles
// and traffic are positive, so every fold's ratios and geomeans stay
// defined, and its per-core DRAM vector is zero-filled so folds that
// index it by core number (fig6) stay in bounds.
func (p *Planner) Get(j Job) (*JobResult, error) {
	p.add(j)
	return &JobResult{
		Workload:     j.Workload.String(),
		Condition:    j.Cond.Name,
		Seed:         j.Cfg.Seed,
		WallCycles:   1e6,
		CPUCycles:    2e6,
		AppCPUCycles: 1e6,
		DRAMTotal:    1e3,
		PeakRSSPages: 1,
		DRAMByCore:   make([]uint64, 64),
		HzGHz:        1,
	}, nil
}

// Results is always empty: a planner completes nothing.
func (p *Planner) Results() []Completed { return nil }

// Stats reports the planned grid: Submitted distinct jobs, Deduped
// repeat submissions.
func (p *Planner) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Submitted: len(p.jobs), Deduped: p.submits - len(p.jobs)}
}

// PlannedJob is one grid cell as resolved by a dry run.
type PlannedJob struct {
	Key      string
	Workload WorkloadRef
	Cond     string
	Seed     int64
}

// Jobs returns the recorded grid sorted by key — the exact cells a real
// run would execute (or serve from a manifest), deduplicated the way the
// pool would.
func (p *Planner) Jobs() []PlannedJob {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PlannedJob, 0, len(p.jobs))
	for key, j := range p.jobs {
		out = append(out, PlannedJob{Key: key, Workload: j.Workload, Cond: j.Cond.Name, Seed: j.Cfg.Seed})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// WriteGrid prints the planned grid, one job per line (key, workload,
// condition, seed), followed by a summary. The listing is sorted by key,
// so it is byte-identical however the figures interleaved their
// submissions.
func (p *Planner) WriteGrid(w io.Writer) error {
	jobs := p.Jobs()
	for _, j := range jobs {
		if _, err := fmt.Fprintf(w, "%s  %-14s %-22s seed=%d\n", j.Key, j.Workload, j.Cond, j.Seed); err != nil {
			return err
		}
	}
	st := p.Stats()
	_, err := fmt.Fprintf(w, "dry-run: %d distinct job(s); %d duplicate submission(s) merged\n",
		st.Submitted, st.Deduped)
	return err
}
