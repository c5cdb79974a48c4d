package kernel

import (
	"fmt"
	"math/rand"

	"repro/internal/bus"

	"repro/internal/ca"
	"repro/internal/shadow"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vm"
)

// InjectHooks are optional fault-injection points consulted on the
// capability load/store fast paths (internal/fault). All nil in normal
// operation; a non-nil hook returning true suppresses the corresponding
// mechanism for that one access.
type InjectHooks struct {
	// SuppressGenFault makes a tagged capability load that would trap on
	// the load barrier (generation mismatch, or the §7.6 always-trap
	// disposition) proceed unchecked with the possibly-stale value.
	SuppressGenFault func(va uint64, v ca.Capability) bool
	// DropCapDirty loses the PTE capability-dirty update of one tagged
	// capability store (§4.2's store barrier never sees the page).
	DropCapDirty func(va uint64) bool
}

// LoadBarrierHandler is implemented by a revoker that arms the per-page
// capability load barrier (§3.2). HandleLoadGenFault runs in the faulting
// thread's context: it must sweep the page, update its PTE generation, and
// charge its costs to th. The load is then re-executed (the barrier is
// self-healing, footnote 14).
type LoadBarrierHandler interface {
	HandleLoadGenFault(th *Thread, va uint64, pte *vm.PTE)
}

// Hoard is a kernel-held stash of user capabilities (saved register files,
// kqueue/aio registrations, ...). Hoards must be scanned during revocation
// (§4.4): the kernel may never divulge a capability the revoker has not
// checked.
type Hoard struct {
	Name string
	caps []ca.Capability
}

// Put stores a capability in slot i, growing the hoard as needed.
func (h *Hoard) Put(i int, c ca.Capability) {
	for len(h.caps) <= i {
		h.caps = append(h.caps, ca.Capability{})
	}
	h.caps[i] = c
}

// Get returns the capability in slot i.
func (h *Hoard) Get(i int) ca.Capability {
	if i >= len(h.caps) {
		return ca.Capability{}
	}
	return h.caps[i]
}

// Len returns the hoard's slot count.
func (h *Hoard) Len() int { return len(h.caps) }

// ProcStats counts per-process memory-system events.
type ProcStats struct {
	Loads, Stores       uint64
	CapLoads, CapStores uint64
	GenFaults           uint64
	GenFaultCycles      uint64
	// COWFaults is always zero (fork copies eagerly). It stays because
	// run records carry these counters as their "proc" object, which
	// internal/expt/testdata/wire pins byte for byte.
	COWFaults     uint64
	TLBRefills    uint64
	ColorTraps    uint64
	StopTheWorlds uint64
	// CDBitSets counts capability-dirty PTE bit transitions (§4.2): the
	// store-barrier signal Cornucopia's page filter is built on.
	CDBitSets uint64
}

// Process is one simulated CheriABI process.
type Process struct {
	M      *Machine
	AS     *vm.AddressSpace
	Shadow *shadow.Bitmap

	threads []*Thread

	// epoch is the public revocation epoch counter (§2.2.3): odd while a
	// revocation pass is in flight, even otherwise.
	epoch   uint64
	epochEv *sim.Event

	stwActive    bool
	stwInitiator *Thread
	stwEv        *sim.Event // broadcast by threads as they park
	resumeEv     *sim.Event // broadcast by the initiator to release the world

	barrier      LoadBarrierHandler
	barrierArmed bool
	colorMode    bool

	// Inject holds this process's fault-injection hook points; the zero
	// value injects nothing.
	Inject InjectHooks

	hoards []*Hoard
	// ephemeral holds capabilities carried into in-flight system calls,
	// keyed by thread; scanned like any hoard (§4.4).
	ephemeral map[*Thread][]ca.Capability
	rng       *rand.Rand
	stats     ProcStats
}

// NewProcess creates a process on the machine.
func (m *Machine) NewProcess(seed int64) *Process {
	p := &Process{
		M:      m,
		AS:     vm.NewAddressSpace(m.Phys, m.Eng.Config().Cores),
		Shadow: shadow.New(),
		rng:    rand.New(rand.NewSource(seed)),
	}
	p.epochEv = m.Eng.NewEvent()
	p.stwEv = m.Eng.NewEvent()
	p.resumeEv = m.Eng.NewEvent()
	if m.Trace != nil || m.Telem != nil {
		// The MMU has no clock; timestamp shootdowns with the machine's
		// wall clock (the initiating core already charged the IPI costs).
		p.AS.OnShootdown = func() {
			m.Trace.Instant(m.Eng.WallClock(), -1, bus.AgentKernel,
				trace.KindShootdown, p.epoch, 0, 0)
			m.Telem.Add(telemetry.StdShootdownsTotal, 1)
		}
	}
	m.procs = append(m.procs, p)
	return p
}

// Spawn creates a thread of this process on the given cores, running fn.
func (p *Process) Spawn(name string, affinity []int, fn func(*Thread)) *Thread {
	th := &Thread{P: p}
	th.Sim = p.M.Eng.Spawn(name, affinity, func(st *sim.Thread) {
		fn(th)
		// A finishing thread is quiescent forever; let any pause initiator
		// re-examine the world.
		th.parked = true
		th.quiesceNotify()
	})
	p.threads = append(p.threads, th)
	return th
}

// Fork clones the process, as the CheriBSD implementation must support
// (§4.3). Bulk address-space operations are excluded while a revocation
// sweep is in flight, so Fork first waits for any odd epoch to complete.
// The clone is an eager copy — every resident page's tags, capabilities
// and colors are duplicated into fresh frames — which sidesteps the
// copy-on-write aliasing defects the paper acknowledges (footnote 20).
// The revocation bitmap and kernel hoards are duplicated; threads are not
// (spawn the child's threads explicitly). The child starts at epoch zero
// with its own revocation state and a steady-state generation view.
func (p *Process) Fork(th *Thread) (*Process, error) {
	if p.epoch%2 == 1 {
		p.WaitEpochAtLeast(th, p.epoch+1)
	}
	th.Syscall(p.M.Costs.Syscall)
	as, err := p.AS.Clone()
	if err != nil {
		return nil, err
	}
	th.Sim.Tick(uint64(as.MappedPageCount()) * p.M.Costs.ForkPageCopy)
	// The child's RNG is seeded from the parent's, drawn only once the
	// address space is cloned and its copy charged.
	child := &Process{
		M:      p.M,
		AS:     as,
		Shadow: p.Shadow.Clone(),
		rng:    rand.New(rand.NewSource(int64(p.rng.Uint64()))),
	}
	child.epochEv = p.M.Eng.NewEvent()
	child.stwEv = p.M.Eng.NewEvent()
	child.resumeEv = p.M.Eng.NewEvent()
	for _, h := range p.hoards {
		nh := child.NewHoard(h.Name)
		nh.caps = append([]ca.Capability(nil), h.caps...)
	}
	child.colorMode = p.colorMode
	p.M.procs = append(p.M.procs, child)
	return child, nil
}

// AdoptKernelThread wraps an existing simulated thread as an in-kernel
// thread of this process: it charges costs and initiates stop-the-world
// against this process, but is not itself subject to the process's pauses
// (in-kernel revocation workers are not user threads, §7.1).
func (p *Process) AdoptKernelThread(st *sim.Thread, agent bus.Agent) *Thread {
	return &Thread{Sim: st, P: p, Agent: agent}
}

// Threads returns the process's threads.
func (p *Process) Threads() []*Thread { return p.threads }

// Stats returns a snapshot of process counters.
func (p *Process) Stats() ProcStats { return p.stats }

// setEphemeral records the capabilities an in-flight system call carries.
func (p *Process) setEphemeral(t *Thread, caps []ca.Capability) {
	if p.ephemeral == nil {
		p.ephemeral = make(map[*Thread][]ca.Capability)
	}
	p.ephemeral[t] = append([]ca.Capability(nil), caps...)
}

// takeEphemeral removes and returns a thread's in-flight capabilities.
func (p *Process) takeEphemeral(t *Thread) []ca.Capability {
	caps := p.ephemeral[t]
	delete(p.ephemeral, t)
	return caps
}

// NewHoard registers a kernel hoard for this process.
func (p *Process) NewHoard(name string) *Hoard {
	h := &Hoard{Name: name}
	p.hoards = append(p.hoards, h)
	return h
}

// SetLoadBarrier installs the Reloaded revoker's fault handler and arms
// generation checking on capability loads.
func (p *Process) SetLoadBarrier(h LoadBarrierHandler) {
	p.barrier = h
	p.barrierArmed = h != nil
}

// SetColorMode enables the §7.3 memory-coloring composition: every access
// compares the capability's color with the memory's color and fails on
// mismatch.
func (p *Process) SetColorMode(on bool) { p.colorMode = on }

// --- epoch counter (§2.2.3) ----------------------------------------------

// Epoch returns the public revocation epoch counter.
func (p *Process) Epoch() uint64 { return p.epoch }

// AdvanceEpoch increments the epoch counter (before a revocation begins and
// again after it ends) and wakes epoch waiters.
func (p *Process) AdvanceEpoch(th *Thread) {
	p.epoch++
	p.epochEv.Broadcast(th.Sim)
}

// WaitEpochAtLeast blocks th until the epoch counter reaches target. This
// is the allocator's synchronization primitive: after painting, wait for
// the counter to advance twice (if even) or thrice (if odd) to be certain a
// full revocation pass began and ended after the paint.
func (p *Process) WaitEpochAtLeast(th *Thread, target uint64) {
	th.WaitOn(p.epochEv, func() bool { return p.epoch >= target })
}

// EpochClearTarget returns the epoch value that must be reached before
// memory painted at epoch e may be reused (§2.2.3).
func EpochClearTarget(e uint64) uint64 {
	if e%2 == 0 {
		return e + 2
	}
	return e + 3
}

// --- stop-the-world (§4.4) -------------------------------------------------

// StopTheWorld quiesces every other thread of the process. Threads stop at
// their next kernel operation; threads blocked or sleeping (e.g. awaiting a
// transaction or in think-time) count as stopped and will park if they wake
// before ResumeTheWorld. The initiator is charged IPI, per-thread stop and
// in-flight-syscall drain costs.
func (p *Process) StopTheWorld(initiator *Thread) {
	if p.stwActive {
		panic("kernel: nested StopTheWorld")
	}
	p.M.Trace.Begin(initiator.Sim.Now(), initiator.Sim.CoreID(),
		bus.AgentKernel, trace.KindSTW, p.epoch, 0, 0)
	p.M.Telem.Enter(initiator.Sim, telemetry.CompKernel)
	defer p.M.Telem.Exit(initiator.Sim)
	p.stwActive = true
	p.stwInitiator = initiator
	p.stats.StopTheWorlds++
	cores := map[int]bool{}
	for _, th := range p.threads {
		if th == initiator || th.Sim.State() == sim.Finished {
			continue
		}
		cores[th.Sim.CoreID()] = true
		initiator.Sim.Tick(p.M.Costs.StopThread)
		if th.inSyscall {
			drain := p.M.Costs.SyscallDrain
			if p.M.Costs.SyscallDrainTailOdds > 0 &&
				p.rng.Uint64()%p.M.Costs.SyscallDrainTailOdds == 0 {
				drain = p.M.Costs.SyscallDrainTail
			}
			initiator.Sim.Tick(drain)
		}
	}
	for range cores {
		initiator.Sim.Tick(p.M.Costs.IPI)
	}
	p.stwEv.WaitUntil(initiator.Sim, func() bool { return p.worldStopped(initiator) })
}

// worldStopped reports whether every other thread is parked, blocked,
// sleeping or finished.
func (p *Process) worldStopped(initiator *Thread) bool {
	for _, th := range p.threads {
		if th == initiator || th.parked {
			continue
		}
		switch th.Sim.State() {
		case sim.Blocked, sim.Sleeping, sim.Finished:
			// Quiescent at an operation boundary; if it wakes during the
			// pause it will park at its first kernel operation.
		default:
			return false
		}
	}
	return true
}

// ResumeTheWorld releases a stopped world.
func (p *Process) ResumeTheWorld(initiator *Thread) {
	if !p.stwActive || p.stwInitiator != initiator {
		panic("kernel: ResumeTheWorld without matching stop")
	}
	p.M.Telem.Enter(initiator.Sim, telemetry.CompKernel)
	defer p.M.Telem.Exit(initiator.Sim)
	for _, th := range p.threads {
		if th != initiator && th.Sim.State() != sim.Finished {
			initiator.Sim.Tick(p.M.Costs.ResumeThread)
		}
	}
	p.stwActive = false
	p.stwInitiator = nil
	p.resumeEv.Broadcast(initiator.Sim)
	p.M.Trace.End(initiator.Sim.Now(), initiator.Sim.CoreID(),
		bus.AgentKernel, trace.KindSTW, p.epoch, 0, 0)
}

// ScanRoots visits every capability root the kernel holds for this process
// — all thread register files and all kernel hoards — testing each against
// the revocation bitmap and clearing the tags of revoked capabilities. It
// must only be called with the world stopped. It returns (scanned, revoked)
// counts; costs are charged to the scanning thread.
func (p *Process) ScanRoots(scanner *Thread) (scanned, revoked int) {
	p.M.Telem.Enter(scanner.Sim, telemetry.CompKernel)
	defer p.M.Telem.Exit(scanner.Sim)
	costs := p.M.Costs
	scanOne := func(c ca.Capability) (ca.Capability, bool) {
		scanner.Sim.Tick(costs.CapScan)
		if !c.Tag() {
			return c, false
		}
		scanner.Sim.Tick(p.M.Bus.Access(scanner.Sim.CoreID(), shadow.VAOf(c.Base()), scanner.Agent, false))
		scanned++
		if p.Shadow.Test(c.Base()) {
			revoked++
			return c.ClearTag(), true
		}
		return c, false
	}
	for _, th := range p.threads {
		for i, c := range th.regs {
			if nc, changed := scanOne(c); changed {
				th.regs[i] = nc
			}
		}
	}
	for _, h := range p.hoards {
		for i, c := range h.caps {
			if nc, changed := scanOne(c); changed {
				h.caps[i] = nc
			}
		}
	}
	// Ephemeral syscall hoards, in deterministic thread order.
	for _, th := range p.threads {
		caps, ok := p.ephemeral[th]
		if !ok {
			continue
		}
		for i, c := range caps {
			if nc, changed := scanOne(c); changed {
				caps[i] = nc
			}
		}
	}
	return scanned, revoked
}

// ForEachRootCap visits every capability root the kernel can see for this
// process — all thread register files, kernel hoards, and in-flight
// syscall (ephemeral) capabilities — in the same deterministic order
// ScanRoots uses, but read-only and without charging any cycles. This is
// the audit view (internal/oracle).
func (p *Process) ForEachRootCap(fn func(where string, c ca.Capability)) {
	for ti, th := range p.threads {
		for i, c := range th.regs {
			fn(fmt.Sprintf("thread %d reg %d", ti, i), c)
		}
	}
	for _, h := range p.hoards {
		for i, c := range h.caps {
			fn(fmt.Sprintf("hoard %s slot %d", h.Name, i), c)
		}
	}
	for ti, th := range p.threads {
		for i, c := range p.ephemeral[th] {
			fn(fmt.Sprintf("thread %d syscall cap %d", ti, i), c)
		}
	}
}

// BumpGenerations toggles the in-core capability load generation on every
// core and invalidates all TLBs (§4.1). Must be called with the world
// stopped; PTEs are not touched. The cores were already interrupted by the
// stop-the-world rendezvous, so the toggle and shootdown ride those IPIs —
// only a small per-core register write and TLB-invalidate cost remains.
func (p *Process) BumpGenerations(initiator *Thread) {
	p.M.Telem.Enter(initiator.Sim, telemetry.CompShootdown)
	defer p.M.Telem.Exit(initiator.Sim)
	ncores := p.M.Eng.Config().Cores
	for c := 0; c < ncores; c++ {
		p.AS.BumpCoreGen(c)
		initiator.Sim.Tick(p.M.Costs.PTEUpdate)
	}
	p.AS.ShootdownAll()
	initiator.Sim.Tick(p.M.Costs.PTEUpdate)
}
