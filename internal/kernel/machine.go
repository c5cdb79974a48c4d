// Package kernel glues the simulated hardware together and exposes the
// operating-system services the paper's revokers are built on: processes
// and threads with cost-charged, fault-handling memory operations;
// stop-the-world rendezvous over all of a process's threads (§4.4);
// kernel capability hoards; the public revocation epoch counter (§2.2.3);
// and the page-sweep primitive every revocation strategy shares.
package kernel

import (
	"repro/internal/bus"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tmem"
	"repro/internal/trace"
)

// Costs is the cycle cost table for kernel-visible events. Memory access
// latency is charged by the bus model; these are everything else.
type Costs struct {
	// Op is the base cost of executing one simple instruction.
	Op uint64
	// TLBHit is the address translation cost on a TLB hit.
	TLBHit uint64
	// TLBMiss is the page-table walk cost on a TLB miss.
	TLBMiss uint64
	// SoftFault is the demand-zero page materialization cost.
	SoftFault uint64
	// TrapEntry is the entry+exit overhead of a synchronous exception
	// (capability load generation fault).
	TrapEntry uint64
	// TLBRefill is the cost of detecting a stale TLB generation whose PTE
	// is already current and reloading the entry (the cheap path of a
	// Reloaded load fault, §4.3).
	TLBRefill uint64
	// PTEUpdate is the amortized cost of a locked page-table update; bulk
	// passes batch many updates under one pmap lock acquisition.
	PTEUpdate uint64
	// IPI is the cost of an inter-processor interrupt, per target core.
	IPI uint64
	// StopThread is the per-thread cost of thread_single-style quiescence.
	StopThread uint64
	// ResumeThread is the per-thread cost of releasing a stopped thread.
	ResumeThread uint64
	// SyscallDrain is the typical cost of completing or aborting one
	// in-flight system call during stop-the-world (§4.4).
	SyscallDrain uint64
	// SyscallDrainTail is the pathological drain cost, charged with
	// probability 1/SyscallDrainTailOdds (the long tails of §5.4.1).
	SyscallDrainTail     uint64
	SyscallDrainTailOdds uint64
	// Syscall is the base user→kernel→user crossing cost.
	Syscall uint64
	// CapScan is the per-capability cost of testing a register or hoard
	// slot against the revocation bitmap.
	CapScan uint64
	// Mmap and Munmap are the base costs of the mapping system calls.
	Mmap, Munmap uint64
	// ForkPageCopy is the per-resident-page cost of an eager fork copy.
	ForkPageCopy uint64
	// COWFault is the cost of a copy-on-write resolution: write fault,
	// frame allocation and 4 KiB copy. Fork copies eagerly, so nothing
	// charges it; it stays because expt.Job.Key hashes the whole
	// harness.Config, these costs included, and dropping the field would
	// re-key every job of BENCH_sweep.json and move bench/golden.json's
	// figures digest.
	COWFault uint64
}

// DefaultCosts returns cycle costs loosely calibrated to a 2.5 GHz
// out-of-order core: traps in the microsecond range, IPIs a few
// microseconds, page-table work tens to hundreds of nanoseconds.
func DefaultCosts() Costs {
	return Costs{
		Op:                   1,
		TLBHit:               1,
		TLBMiss:              40,
		SoftFault:            1_800,
		TrapEntry:            1_200,
		TLBRefill:            300,
		PTEUpdate:            70,
		IPI:                  2_500,
		StopThread:           3_000,
		ResumeThread:         800,
		SyscallDrain:         1_500,
		SyscallDrainTail:     12_000_000, // ~5 ms: a stuck syscall (§5.4.1)
		SyscallDrainTailOdds: 2_000,
		Syscall:              700,
		CapScan:              6,
		Mmap:                 2_000,
		Munmap:               1_500,
		ForkPageCopy:         1_500,
		COWFault:             3_500, // charged by nothing; kept for the job keys (see Costs)
	}
}

// Machine is one simulated computer: cores, tagged memory, and the bus.
type Machine struct {
	Eng   *sim.Engine
	Phys  *tmem.Phys
	Bus   *bus.Bus
	Costs Costs

	// Trace, when non-nil, records structured events from every layer
	// (epochs, stop-the-world windows, sweeps, load-barrier faults,
	// shootdowns, quarantine and allocator activity). A nil Trace is a
	// valid no-op tracer, so hot paths need no guards. Set it before
	// creating processes so the MMU shootdown hook is wired.
	Trace *trace.Tracer

	// Telem, when non-nil, is the cycle profiler and metrics registry
	// fed by kernel emit sites. Like Trace, nil is a valid disabled
	// recorder; set it (and Bind it to Eng) before creating processes.
	Telem *telemetry.Telemetry

	procs []*Process
}

// MachineConfig aggregates the machine's constituent configurations.
type MachineConfig struct {
	Sim   sim.Config
	Bus   bus.Config
	Costs Costs
	// MaxFrames bounds physical memory, in 4 KiB frames.
	MaxFrames int
}

// DefaultMachineConfig models a Morello-like four-core 2.5 GHz board with
// 1 GiB of tagged memory.
func DefaultMachineConfig() MachineConfig {
	return MachineConfig{
		Sim:       sim.DefaultConfig(),
		Bus:       bus.DefaultConfig(),
		Costs:     DefaultCosts(),
		MaxFrames: 1 << 18,
	}
}

// NewMachine boots a machine.
func NewMachine(cfg MachineConfig) *Machine {
	return &Machine{
		Eng:   sim.New(cfg.Sim),
		Phys:  tmem.NewPhys(cfg.MaxFrames),
		Bus:   bus.New(cfg.Sim.Cores, cfg.Bus),
		Costs: cfg.Costs,
	}
}

// Processes returns the machine's processes in creation order.
func (m *Machine) Processes() []*Process { return m.procs }

// Run executes the machine until all threads complete.
func (m *Machine) Run() error { return m.Eng.Run() }
