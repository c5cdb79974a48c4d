// Package harness assembles experiments: one Run boots a fresh simulated
// machine ("cold boot"), installs the heap, the chosen temporal-safety
// condition, and the revocation service, executes a workload, and collects
// every quantity the paper's figures report — wall and CPU cycles, DRAM
// traffic by agent and core, peak RSS, quarantine behaviour, per-epoch
// phase timings, and per-event latencies.
package harness

import (
	"fmt"
	"math/rand"

	"repro/internal/alloc"
	"repro/internal/bus"
	"repro/internal/color"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/quarantine"
	"repro/internal/revoke"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Condition is one temporal-safety configuration of §5's evaluation.
type Condition struct {
	// Name is the condition's display name.
	Name string
	// Shimmed selects whether the mrs quarantine shim is interposed; the
	// baseline runs the bare allocator.
	Shimmed bool
	// Strategy is the revocation strategy (meaningful when Shimmed).
	Strategy revoke.Strategy
	// Workers configures §7.1 parallel background revocation.
	Workers int
	// RevokerCores pins the revoker thread (nil = unpinned).
	RevokerCores []int
	// Policy is the quarantine policy (zero value = scaled default).
	Policy quarantine.Policy
	// Coloring layers the §7.3 memory-coloring composition over the shim:
	// frees recolor and reuse immediately; revocation runs only when a
	// span exhausts its colors.
	Coloring bool
	// AlwaysTrap enables the §7.6 always-trap PTE disposition for clean
	// pages (Reloaded only).
	AlwaysTrap bool
}

// Baseline is the no-temporal-safety condition every overhead is relative
// to: the same allocator, no shim, no revoker.
func Baseline() Condition {
	return Condition{Name: "Baseline"}
}

// StandardConditions returns the paper's four test conditions with the
// revoker pinned to core 2 (the SPEC and pgbench regime).
func StandardConditions() []Condition {
	mk := func(s revoke.Strategy) Condition {
		return Condition{Name: s.String(), Shimmed: true, Strategy: s, RevokerCores: []int{2}}
	}
	return []Condition{mk(revoke.Reloaded), mk(revoke.Cornucopia), mk(revoke.CHERIvoke), mk(revoke.PaintSync)}
}

// SweepConditions returns just the three sweeping strategies.
func SweepConditions() []Condition {
	all := StandardConditions()
	return all[:3]
}

// ColoringCondition returns the §7.3 composition over the given strategy.
func ColoringCondition(s revoke.Strategy) Condition {
	return Condition{
		Name: s.String() + "+colors", Shimmed: true, Strategy: s,
		RevokerCores: []int{2}, Coloring: true,
	}
}

// Result carries everything measured in one run. It is also the run's
// record on disk and on the wire: manifests, dist results and sweep
// documents carry it as JSON (expt.JobResult is this type), so every
// field is plain data, and float64 fields round-trip exactly (Go emits the
// shortest representation that parses back to the same value), so tables
// built from decoded results are byte-identical to freshly-run ones.
type Result struct {
	Workload  string `json:"workload"`
	Condition string `json:"condition"`
	Seed      int64  `json:"seed"`

	WallCycles uint64 `json:"wall_cycles"`
	// CPUCycles is busy cycles summed over all cores ("total CPU time,
	// both cores" in Figure 2).
	CPUCycles uint64 `json:"cpu_cycles"`
	// AppCPUCycles is the primary application thread's busy cycles.
	AppCPUCycles uint64 `json:"app_cpu_cycles"`

	DRAMTotal uint64 `json:"dram_total"`
	// DRAMByAgent is keyed by bus.Agent name ("app", "alloc", "revoker",
	// "kernel"), so the schema outlives the numeric constants.
	DRAMByAgent map[string]uint64 `json:"dram_by_agent,omitempty"`
	DRAMByCore  []uint64          `json:"dram_by_core,omitempty"`

	// PeakRSSPages is the process's peak resident set, in pages.
	PeakRSSPages int `json:"peak_rss_pages"`

	Proc   kernel.ProcStats     `json:"proc"`
	Heap   alloc.Stats          `json:"heap"`
	Quar   quarantine.Stats     `json:"quarantine"`
	Epochs []revoke.EpochRecord `json:"epochs,omitempty"`

	// Fault and Oracle report the injection campaign and soundness audit
	// when Config.Fault / Config.Oracle were set (nil otherwise).
	Fault  *fault.Report  `json:"fault,omitempty"`
	Oracle *oracle.Report `json:"oracle,omitempty"`
	// Recovery counts the revoker's abort-and-retry actions (all zero,
	// and absent from the JSON, outside fault campaigns).
	Recovery revoke.RecoveryStats `json:"recovery,omitzero"`

	// LatCycles holds the per-event latencies (cycles) of interactive
	// workloads, sorted ascending.
	LatCycles []float64 `json:"lat_cycles,omitempty"`

	// HzGHz converts cycles to seconds for reporting.
	HzGHz float64 `json:"hz_ghz"`

	// Messages and MeasureCycles are the qps workload's throughput
	// outputs (zero for other workloads); expt.RunJob fills them.
	Messages      uint64 `json:"messages,omitempty"`
	MeasureCycles uint64 `json:"measure_cycles,omitempty"`

	// Telem is the run's checked telemetry snapshot (profile, metrics and
	// any trace ring) when expt.RunJob ran it with telemetry; nil
	// otherwise. It rides the manifest, so resumed sweeps keep their
	// profiles.
	Telem *telemetry.Snapshot `json:"telem,omitempty"`

	// Trace is the run's tracer when Config.Trace was set (nil otherwise);
	// export Trace.Events() with trace.WriteCSV or trace.WriteTimeline.
	// It is never serialized: expt.RunJob exports the ring into Telem
	// instead.
	Trace *trace.Tracer `json:"-"`
}

// Lat returns the per-event latencies as a sample set.
func (r *Result) Lat() *metrics.Samples {
	s := &metrics.Samples{}
	for _, x := range r.LatCycles {
		s.Add(x)
	}
	return s
}

// Seconds converts cycles to seconds at the machine's clock.
func (r *Result) Seconds(cycles uint64) float64 { return float64(cycles) / (r.HzGHz * 1e9) }

// Millis converts cycles to milliseconds.
func (r *Result) Millis(cycles uint64) float64 { return r.Seconds(cycles) * 1e3 }

// Config tunes a run.
type Config struct {
	// Machine is the hardware model; zero value = default.
	Machine kernel.MachineConfig
	// Seed drives all randomness in the run.
	Seed int64
	// Scale divides full-size footprints (default 64).
	Scale uint64
	// AppCores is where application threads are pinned (default {3}).
	AppCores []int
	// QuarantineMin is the scaled mrs minimum-quarantine floor (default
	// 8 MiB / Scale).
	QuarantineMin uint64
	// Trace, when non-nil, records structured events from every layer of
	// the run (see internal/trace). The same tracer is returned in
	// Result.Trace. Nil disables tracing at no cost.
	Trace *trace.Tracer
	// Fault, when non-nil, arms deterministic fault injection
	// (internal/fault) for this run. The omitempty tags keep pre-campaign
	// experiment job keys stable.
	Fault *fault.Spec `json:"Fault,omitempty"`
	// Oracle installs the end-to-end soundness oracle (internal/oracle);
	// requires a shimmed condition.
	Oracle bool `json:"Oracle,omitempty"`
	// Telem, when non-nil, records the run's cycle profile and metrics
	// time series (see internal/telemetry); snapshot it after Run
	// returns. Excluded from JSON so experiment job keys stay stable —
	// enabling telemetry never changes what a run computes.
	Telem *telemetry.Telemetry `json:"-"`
}

// DefaultConfig returns the standard experiment configuration.
func DefaultConfig() Config {
	return Config{
		Machine:  kernel.DefaultMachineConfig(),
		Seed:     1,
		Scale:    64,
		AppCores: []int{3},
	}
}

// Run executes workload w under condition cond.
func Run(w workload.Workload, cond Condition, cfg Config) (*Result, error) {
	if cfg.Scale == 0 {
		cfg.Scale = 64
	}
	if len(cfg.AppCores) == 0 {
		cfg.AppCores = []int{3}
	}
	if cfg.Machine.MaxFrames == 0 {
		cfg.Machine = kernel.DefaultMachineConfig()
	}
	m := kernel.NewMachine(cfg.Machine)
	m.Trace = cfg.Trace // before NewProcess: wires the MMU shootdown hook
	m.Telem = cfg.Telem
	cfg.Telem.Bind(m.Eng)
	p := m.NewProcess(cfg.Seed)
	h := alloc.NewHeap(p)

	rig := &workload.Rig{
		M:        m,
		P:        p,
		Lat:      &metrics.Samples{},
		RNG:      rand.New(rand.NewSource(cfg.Seed)),
		AppCores: cfg.AppCores,
		Scale:    cfg.Scale,
	}

	var svc *revoke.Service
	var shim *quarantine.Shim
	var orc *oracle.Oracle
	if cond.Shimmed {
		rcfg := revoke.Config{
			Strategy:             cond.Strategy,
			RevokerCores:         cond.RevokerCores,
			Workers:              cond.Workers,
			AlwaysTrapCleanPages: cond.AlwaysTrap,
		}
		if err := rcfg.Validate(); err != nil {
			return nil, fmt.Errorf("harness: %s: %w", cond.Name, err)
		}
		svc = revoke.NewService(p, rcfg)
		pol := cond.Policy
		if pol.HeapFraction == 0 {
			pol = quarantine.DefaultPolicy()
			pol.MinBytes = pol.MinBytes / cfg.Scale
			if cfg.QuarantineMin != 0 {
				pol.MinBytes = cfg.QuarantineMin
			}
		}
		shim = quarantine.New(h, svc, pol)
		rig.Mem = shim
		if cond.Coloring {
			p.SetColorMode(true)
			h.SetColoring(true)
			rig.Mem = color.New(h, shim)
		}
		if cfg.Oracle {
			orc = oracle.New(p, h, svc)
			svc.SetObserver(orc)
			shim.SetDrainObserver(orc.ObserveDrain)
		}
		svc.Start()
	} else {
		if cfg.Oracle {
			return nil, fmt.Errorf("harness: %s: the soundness oracle requires a shimmed condition", cond.Name)
		}
		rig.Mem = h
	}

	bindTelemetrySources(cfg.Telem, m, p, h, shim, svc)

	var inj *fault.Injector
	if cfg.Fault != nil {
		var err error
		inj, err = fault.New(*cfg.Fault)
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		fault.Wire(inj, p, svc)
	}

	var appTh *kernel.Thread
	appTh = p.Spawn(w.Name(), cfg.AppCores, func(th *kernel.Thread) {
		w.Body(rig, th)
		if svc != nil {
			svc.Shutdown(th)
		}
	})

	if err := m.Run(); err != nil {
		return nil, fmt.Errorf("harness: %s under %s: %w", w.Name(), cond.Name, err)
	}

	bs := m.Bus.Stats()
	res := &Result{
		Workload:     w.Name(),
		Condition:    cond.Name,
		Seed:         cfg.Seed,
		WallCycles:   m.Eng.WallClock(),
		CPUCycles:    m.Eng.TotalCPU(),
		AppCPUCycles: appTh.Sim.CPU(),
		DRAMTotal:    bs.TotalDRAM(),
		DRAMByAgent:  make(map[string]uint64, len(bs.DRAMByAgent)),
		DRAMByCore:   bs.DRAMByCore,
		PeakRSSPages: p.AS.Stats().PeakMappedPages,
		Proc:         p.Stats(),
		Heap:         h.Stats(),
		HzGHz:        cfg.Machine.Sim.HzGHz,
		Trace:        cfg.Trace,
	}
	for a, n := range bs.DRAMByAgent {
		res.DRAMByAgent[bus.Agent(a).String()] = n
	}
	if rig.Lat.N() > 0 {
		res.LatCycles = rig.Lat.Values()
	}
	if shim != nil {
		res.Quar = shim.Stats()
	}
	if svc != nil {
		res.Epochs = svc.Records()
		res.Recovery = svc.Recovery()
	}
	if inj != nil {
		rep := inj.Report()
		res.Fault = &rep
	}
	if orc != nil {
		rep := orc.Report()
		res.Oracle = &rep
	}
	return res, nil
}

// bindTelemetrySources wires the standard metric series to their state
// readers. Sources are pure reads evaluated only at sample boundaries and
// snapshot time, so the bindings cost nothing on the simulated hot path.
func bindTelemetrySources(tl *telemetry.Telemetry, m *kernel.Machine, p *kernel.Process,
	h *alloc.Heap, shim *quarantine.Shim, svc *revoke.Service) {
	if !tl.Enabled() {
		return
	}
	tl.Source(telemetry.StdEpochCounter, func() float64 { return float64(p.Epoch()) })
	tl.Source(telemetry.StdCDBitSetsTotal, func() float64 { return float64(p.Stats().CDBitSets) })
	tl.Source(telemetry.StdGenFaultsTotal, func() float64 { return float64(p.Stats().GenFaults) })
	tl.Source(telemetry.StdGenFaultCyclesTotal, func() float64 { return float64(p.Stats().GenFaultCycles) })
	tl.Source(telemetry.StdCapLoadsTotal, func() float64 { return float64(p.Stats().CapLoads) })
	tl.Source(telemetry.StdCapStoresTotal, func() float64 { return float64(p.Stats().CapStores) })
	tl.Source(telemetry.StdTLBRefillsTotal, func() float64 { return float64(p.Stats().TLBRefills) })
	tl.Source(telemetry.StdHeapLiveBytes, func() float64 { return float64(h.LiveBytes()) })
	tl.Source(telemetry.StdHeapAllocsTotal, func() float64 { return float64(h.Stats().Allocs) })
	tl.Source(telemetry.StdHeapFreesTotal, func() float64 { return float64(h.Stats().Frees) })
	tl.Source(telemetry.StdMappedPages, func() float64 { return float64(p.AS.Stats().MappedPages) })
	tl.Source(telemetry.StdFramesAllocated, func() float64 { return float64(m.Phys.Allocated()) })
	if shim != nil {
		tl.Source(telemetry.StdQuarBytes, func() float64 { return float64(shim.Stats().QuarantinedBytes) })
		tl.Source(telemetry.StdQuarBlocksTotal, func() float64 { return float64(shim.Stats().Blocks) })
	}
	if svc != nil {
		tl.Source(telemetry.StdRecoveryActionsTotal, func() float64 { return float64(svc.Recovery().Total()) })
	}
}

// RepeatStride separates the seeds of repeated runs ("batches" with a
// cold boot each, as §5.1 does): run i of a batch uses seed+i*RepeatStride.
const RepeatStride = 1000003

// MeanWall returns the mean wall-clock cycles over results.
func MeanWall(rs []*Result) float64 {
	var s metrics.Samples
	for _, r := range rs {
		s.AddU(r.WallCycles)
	}
	return s.Mean()
}

// MeanCPU returns the mean total CPU cycles over results.
func MeanCPU(rs []*Result) float64 {
	var s metrics.Samples
	for _, r := range rs {
		s.AddU(r.CPUCycles)
	}
	return s.Mean()
}

// MeanDRAM returns the mean DRAM transactions over results.
func MeanDRAM(rs []*Result) float64 {
	var s metrics.Samples
	for _, r := range rs {
		s.AddU(r.DRAMTotal)
	}
	return s.Mean()
}

// MeanRSS returns the mean peak RSS in pages.
func MeanRSS(rs []*Result) float64 {
	var s metrics.Samples
	for _, r := range rs {
		s.AddU(uint64(r.PeakRSSPages))
	}
	return s.Mean()
}
