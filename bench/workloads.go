package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/ca"
	"repro/internal/expt"
	"repro/internal/harness"
	"repro/internal/kernel"
	"repro/internal/quarantine"
	"repro/internal/revoke"
	"repro/internal/telemetry"
	"repro/internal/workload"
	"repro/internal/workload/fleet"
	"repro/internal/workload/heapscale"
)

// A workloadDef is one set of inputs the benchmark runs. All workloads are
// closed loops: one driver runs iterations back to back, at the default
// GOMAXPROCS, as users run the simulator.
type workloadDef struct {
	name, why string
	// prepare generates the inputs for seed; it is the input-generation
	// half of set-up (the warm-up unit is the other half).
	prepare func(seed int64) runner
}

// A runner executes one workload's prepared inputs.
type runner interface {
	// warmUp runs one untimed unit: one job for figures, one run otherwise.
	warmUp() error
	// iterate runs one measured iteration. With sp non-nil the iteration
	// is traced: spans go to sp under parent and telemetry is armed.
	iterate(sp *spans, parent int) outcome
}

// outcome is what one iteration computed.
type outcome struct {
	attempted, failed int // jobs (figures) or runs (otherwise)
	err               error
	digest            string
	sim               simCounts
	// dedup is the share of job submissions the pool served by
	// memoization, and doc the canonical results document (figures only).
	dedup float64
	doc   *expt.Document
}

// simCounts is the simulated work of one iteration, summed over its runs.
// It is deterministic for a seed: a host-only change must leave it as is.
type simCounts struct {
	CPUCycles     uint64
	DRAMTx        uint64
	TLBRefills    uint64
	BarrierFaults uint64
	AllocOps      uint64
	QuarBlocks    uint64
	Epochs        uint64
	CapsVisited   uint64
	CapsRevoked   uint64
	STWMaxCycles  uint64
	// IdleCycles and CoreCycles come from the telemetry snapshots of a
	// traced iteration (zero when untraced).
	IdleCycles, CoreCycles uint64
}

func (c *simCounts) add(r *expt.JobResult) {
	c.CPUCycles += r.CPUCycles
	c.DRAMTx += r.DRAMTotal
	c.TLBRefills += r.Proc.TLBRefills
	c.BarrierFaults += r.Proc.GenFaults
	c.AllocOps += r.Heap.Allocs + r.Heap.Frees
	c.QuarBlocks += r.Quar.Blocks
	c.Epochs += uint64(len(r.Epochs))
	for _, e := range r.Epochs {
		c.CapsVisited += e.CapsVisited
		c.CapsRevoked += e.CapsRevoked
		c.STWMaxCycles = max(c.STWMaxCycles, e.STWCycles)
	}
	if s := r.Telem; s != nil {
		for i, clk := range s.CoreClock {
			c.CoreCycles += clk
			c.IdleCycles += s.Idle[i]
		}
	}
}

// workloads is the benchmark's workload set, in report order.
var workloads = []workloadDef{
	{
		name:    "figures",
		why:     "the full evaluation grid users regenerate: all 12 figures on one pool, straggler-bound, the only load on expt scheduling",
		prepare: prepareFigures,
	},
	{
		name:    "conn-fleet",
		why:     "8192 mostly idle connection threads: bound by the sim scheduler and the Go runtime, with little memory-model work",
		prepare: simPrep(connFleet),
	},
	{
		name:    "heap-extent",
		why:     "a million live allocations built and revoked: bound by the allocation path through alloc, vm, tmem and shadow (writes)",
		prepare: simPrep(heapExtent),
	},
	{
		name:    "sweep-storm",
		why:     "a pointer-dense heap re-swept every epoch: the same tmem and shadow layers as heap-extent, driven by sweeps (reads)",
		prepare: simPrep(sweepStorm),
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// figuresOptions is the grid the committed BENCH_sweep.json was made
// with (cmd/sweep -reps 1 -scale 256 -txs 1000 -measure-ms 100
// -warmup-ms 10), reseeded.
func figuresOptions(seed int64) expt.Options {
	o := expt.DefaultOptions()
	o.Reps = 1
	o.Txs = 1000
	o.SpecCfg.Scale = 256
	o.PgCfg.Scale = 256 / 8
	o.QPSCfg.Scale = 256
	o.SpecCfg.Seed, o.PgCfg.Seed, o.QPSCfg.Seed = seed, seed, seed
	perMs := uint64(o.QPSCfg.Machine.Sim.HzGHz * 1e6)
	o.Measure = 100 * perMs
	o.Warmup = 10 * perMs
	return o
}

// figuresWorkers is the pool size of the figures workload, as cmd/sweep
// runs it on a 2-core host; hosts with fewer cores use one per core.
const figuresWorkers = 2

// runJobFunc executes one job; traced jobs pass telemetry options.
type runJobFunc func(j expt.Job, telem *telemetry.Options) (*expt.JobResult, error)

func runJob(j expt.Job, telem *telemetry.Options) (*expt.JobResult, error) {
	return expt.RunJob(j, telem, 0, 0, 0)
}

// figuresRunner builds every figure concurrently on a fresh pool per
// iteration, as cmd/sweep does. A fresh pool matters: a reused one would
// serve the second iteration from its memoized results.
type figuresRunner struct {
	opts    expt.Options
	workers int
	planned int // distinct jobs in the grid
	warm    expt.Job
	run     runJobFunc
}

// prepareFigures resolves the seed's job grid, the figures workload's
// input generation.
func prepareFigures(seed int64) runner {
	o := figuresOptions(seed)
	g := &gridPlanner{keys: map[string]bool{}}
	for _, f := range expt.Figures() {
		// The planner never fails a Get, so Build cannot fail here.
		_, _ = f.Build(o, g)
	}
	return &figuresRunner{
		opts:    o,
		workers: min(figuresWorkers, runtime.NumCPU()),
		planned: len(g.keys),
		warm:    expt.Job{Workload: expt.SpecWorkload("xalancbmk"), Cond: harness.StandardConditions()[0], Cfg: o.SpecCfg},
		run:     runJob,
	}
}

// gridPlanner is a Getter that records the distinct jobs the figure
// builders request and answers each with syntheticResult. Unlike
// expt.Planner's zero results, these keep every fold's geomeans positive.
type gridPlanner struct{ keys map[string]bool }

func (g *gridPlanner) Prefetch(jobs []expt.Job) {
	for _, j := range jobs {
		g.keys[j.Key()] = true
	}
}

func (g *gridPlanner) Get(j expt.Job) (*expt.JobResult, error) {
	g.keys[j.Key()] = true
	return syntheticResult(j), nil
}

// syntheticResult is a stand-in job result with nonzero cycles and traffic.
func syntheticResult(j expt.Job) *expt.JobResult {
	return &expt.JobResult{
		Workload: j.Workload.String(), Condition: j.Cond.Name, Seed: j.Cfg.Seed,
		WallCycles: 1e6, CPUCycles: 2e6, AppCPUCycles: 1e6, DRAMTotal: 1e3, PeakRSSPages: 1,
		DRAMByCore: make([]uint64, 64), HzGHz: 2.5,
	}
}

func (f *figuresRunner) warmUp() error {
	_, err := f.run(f.warm, nil)
	return err
}

// submitTimes is a Getter in front of the pool that notes when each job
// was first submitted, so a job's queue wait can be measured when it
// starts.
type submitTimes struct {
	expt.Getter
	mu    sync.Mutex
	first map[string]time.Time
}

func (g *submitTimes) note(jobs ...expt.Job) {
	now := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, j := range jobs {
		if k := j.Key(); g.first[k].IsZero() {
			g.first[k] = now
		}
	}
}

func (g *submitTimes) Prefetch(jobs []expt.Job) {
	g.note(jobs...)
	g.Getter.Prefetch(jobs)
}

func (g *submitTimes) Get(j expt.Job) (*expt.JobResult, error) {
	g.note(j)
	return g.Getter.Get(j)
}

func (g *submitTimes) waited(j expt.Job) time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	return time.Since(g.first[j.Key()])
}

func (f *figuresRunner) iterate(sp *spans, parent int) outcome {
	pool := expt.NewPool(expt.PoolConfig{Workers: f.workers})
	var g expt.Getter = pool
	var telem *telemetry.Options
	if sp != nil {
		telem = &telemetry.Options{}
		st := &submitTimes{Getter: pool, first: map[string]time.Time{}}
		g = st
		pool.SetRun(func(j expt.Job) (*expt.JobResult, time.Duration, error) {
			lane := sp.acquireLane()
			defer sp.releaseLane(lane)
			id := sp.begin("expt.RunJob "+j.Workload.String()+" / "+j.Cond.Name, parent, lane)
			sp.setWait(id, st.waited(j))
			defer sp.end(id)
			r, err := f.run(j, telem)
			return r, 0, err
		})
	} else {
		pool.SetRun(func(j expt.Job) (*expt.JobResult, time.Duration, error) {
			r, err := f.run(j, nil)
			return r, 0, err
		})
	}

	figs := expt.Figures()
	results := make([]expt.FigureResult, len(figs))
	errs := make([]error, len(figs))
	var wg sync.WaitGroup
	for i, fig := range figs {
		wg.Add(1)
		go func(i int, fig expt.Figure) {
			defer wg.Done()
			lane := laneFigureBase + i
			sp.nameLane(lane, "figure "+fig.ID)
			id := sp.begin("figure "+fig.ID, parent, lane)
			defer sp.end(id)
			tb, err := fig.Build(f.opts, g)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", fig.ID, err)
				return
			}
			results[i] = expt.NewFigureResult(fig.ID, tb)
		}(i, fig)
	}
	wg.Wait()

	st := pool.Stats()
	o := outcome{attempted: st.Submitted, failed: st.Failed}
	if st.Submitted+st.Deduped > 0 {
		o.dedup = float64(st.Deduped) / float64(st.Submitted+st.Deduped)
	}
	for _, err := range errs {
		if err != nil && o.err == nil {
			o.err = err
		}
	}
	if o.err == nil && (st.Executed != f.planned || st.Submitted != f.planned) {
		o.err = fmt.Errorf("pool executed %d of %d submitted jobs, grid has %d", st.Executed, st.Submitted, f.planned)
	}
	if o.err != nil {
		o.failed = o.attempted
		return o
	}
	for _, c := range pool.Results() {
		o.sim.add(c.Result)
	}
	doc := expt.BuildDocument(pool, results, 0, f.opts.Reps, f.opts.SpecCfg.Scale)
	doc.Canonicalize()
	h := sha256.New()
	if err := doc.Write(h); err != nil {
		o.err, o.failed = err, o.attempted
		return o
	}
	o.digest = hex.EncodeToString(h.Sum(nil))
	o.doc = doc
	return o
}

// simSpec is one harness.Run: a fresh workload instance under a condition.
type simSpec func(seed int64) (workload.Workload, harness.Condition, harness.Config)

// simRunner runs one simulation per iteration.
type simRunner struct {
	spec simSpec
	seed int64
}

func simPrep(spec simSpec) func(int64) runner {
	return func(seed int64) runner { return &simRunner{spec: spec, seed: seed} }
}

func (r *simRunner) warmUp() error { return r.iterate(nil, 0).err }

func (r *simRunner) iterate(sp *spans, parent int) outcome {
	requested := time.Now() // the run's queue wait is its construction
	w, cond, cfg := r.spec(r.seed)
	if sp != nil {
		cfg.Telem = telemetry.New(telemetry.Options{})
	}
	lane := sp.acquireLane()
	id := sp.begin("harness.Run "+w.Name()+" / "+cond.Name, parent, lane)
	sp.setWait(id, time.Since(requested))
	res, err := harness.Run(w, cond, cfg)
	sp.end(id)
	sp.releaseLane(lane)
	o := outcome{attempted: 1}
	snap := cfg.Telem.Snapshot()
	if err == nil && snap != nil {
		err = snap.CheckConservation()
	}
	if err != nil {
		o.err, o.failed = err, 1
		return o
	}
	jr := expt.FromHarness(res, cfg.Seed)
	jr.Telem = snap
	o.sim.add(jr)
	o.digest = runDigest(jr)
	return o
}

// runDigest hashes a run's simulated outputs: cycles, DRAM traffic by
// agent, peak pages, per-epoch records and the latency sample count.
func runDigest(r *expt.JobResult) string {
	b, err := json.Marshal(struct {
		Wall, CPU, AppCPU uint64
		DRAMByAgent       map[string]uint64
		PeakRSSPages      int
		Epochs            []revoke.EpochRecord
		Latencies         int
	}{r.WallCycles, r.CPUCycles, r.AppCPUCycles, r.DRAMByAgent, r.PeakRSSPages, r.Epochs, len(r.LatCycles)})
	if err != nil {
		panic(fmt.Sprintf("bench: run digest: %v", err)) // plain data always marshals
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// connFleet is hostbench's scheduler-bound fleet campaign, reseeded.
func connFleet(seed int64) (workload.Workload, harness.Condition, harness.Config) {
	w := fleet.New(8192, 48)
	w.Seed = uint64(seed)
	cfg := harness.DefaultConfig()
	cfg.Seed = seed
	cfg.AppCores = []int{0, 1, 3}
	return w, reloaded(quarantine.Policy{HeapFraction: 0.001, MinBytes: 1 << 20, BlockFactor: 1000}), cfg
}

// heapExtent is the heapscale figure's workload at full scale. Its policy
// is explicit because the shipped figure's default policy never triggers
// a revocation; this one revokes four times.
func heapExtent(seed int64) (workload.Workload, harness.Condition, harness.Config) {
	w := heapscale.New(1<<20, 1<<18)
	cfg := harness.SpecConfig()
	cfg.Seed = seed
	cfg.Scale = 1
	cfg.Machine.MaxFrames = max(cfg.Machine.MaxFrames, w.MaxFrames(cfg.Scale))
	return w, reloaded(quarantine.Policy{HeapFraction: 0.05, MinBytes: 1 << 20, BlockFactor: 2}), cfg
}

// sweepStorm re-sweeps a large pointer-dense heap under CHERIvoke, whose
// every epoch visits the whole heap.
func sweepStorm(seed int64) (workload.Workload, harness.Condition, harness.Config) {
	cond := harness.Condition{
		Name: "CHERIvoke", Shimmed: true, Strategy: revoke.CHERIvoke, RevokerCores: []int{2},
		Policy: quarantine.Policy{HeapFraction: 0.001, MinBytes: 8 << 10, BlockFactor: 1000},
	}
	cfg := harness.DefaultConfig()
	cfg.Seed = seed
	return storm{objs: 1 << 18, churn: 1 << 15, size: 64}, cond, cfg
}

func reloaded(p quarantine.Policy) harness.Condition {
	return harness.Condition{Name: "Reloaded", Shimmed: true, Strategy: revoke.Reloaded, RevokerCores: []int{2}, Policy: p}
}

// storm is a resident pool of pointer-dense objects (each holds a
// capability to itself, so every object contributes a tagged granule),
// churned at seeded random slots just hard enough to keep epochs coming:
// nearly all simulated work is the revoker re-sweeping the resident tags.
type storm struct {
	objs, churn int
	size        uint64
}

func (s storm) Name() string { return "sweep-storm" }

func (s storm) Body(rig *workload.Rig, th *kernel.Thread) {
	alloc := func() ca.Capability {
		c, err := rig.Mem.Malloc(th, s.size)
		if err != nil {
			panic(err)
		}
		if err := th.StoreCap(c, 0, c); err != nil {
			panic(err)
		}
		return c
	}
	caps := make([]ca.Capability, s.objs)
	for i := range caps {
		caps[i] = alloc()
	}
	for i := 0; i < s.churn; i++ {
		k := rig.RNG.Intn(len(caps))
		if err := rig.Mem.Free(th, caps[k]); err != nil {
			panic(err)
		}
		caps[k] = alloc()
	}
	for _, c := range caps {
		if err := rig.Mem.Free(th, c); err != nil {
			panic(err)
		}
	}
	if shim, ok := rig.Mem.(*quarantine.Shim); ok {
		shim.Flush(th)
	}
}
