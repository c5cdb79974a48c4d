package kernel

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/ca"
	"repro/internal/shadow"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tmem"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Thread is one simulated user thread. All user-visible work — computation,
// memory access, system calls — flows through its methods, which charge
// virtual time and honor stop-the-world requests at operation boundaries.
//
// Capability roots held by the program (the architectural register file,
// spilled registers, thread stacks) are modelled by the thread's register
// slots: long-lived capabilities must live in registers or in simulated
// memory, where revocation can find them. Holding a capability only in a Go
// local across blocking operations would hide it from the revoker, which
// the real architecture makes impossible.
type Thread struct {
	Sim   *sim.Thread
	P     *Process
	Agent bus.Agent

	regs      []ca.Capability
	inSyscall bool
	parked    bool
}

// pre is the prologue of every kernel operation: honor a pending
// stop-the-world, then charge the base cost.
func (t *Thread) pre(cycles uint64) {
	if t.P.stwActive && t.P.stwInitiator != t {
		t.park()
	}
	t.Sim.Tick(cycles)
}

// park blocks the thread for the duration of a stop-the-world pause.
func (t *Thread) park() {
	for t.P.stwActive && t.P.stwInitiator != t {
		t.parked = true
		t.P.stwEv.Broadcast(t.Sim)
		t.P.resumeEv.Wait(t.Sim)
		t.parked = false
	}
}

// quiesceNotify tells a stop-the-world initiator to re-examine the world:
// called just before this thread transitions to a blocked or sleeping
// state, which counts as stopped.
func (t *Thread) quiesceNotify() {
	if t.P.stwActive && t.P.stwInitiator != t {
		t.P.stwEv.Broadcast(t.Sim)
	}
}

// WaitOn blocks the thread until cond() holds, re-testing after each
// broadcast of ev. It is stop-the-world aware: blocking counts as reaching
// a safepoint (the initiator is notified), and a pause still in progress
// when the thread wakes parks it before it can touch anything. All
// simulated code must block through this (or Idle/Syscall), never through
// a raw sim.Event, or stop-the-world can stall.
func (t *Thread) WaitOn(ev *sim.Event, cond func() bool) {
	for !cond() {
		t.quiesceNotify()
		ev.Wait(t.Sim)
	}
	t.pre(0)
}

// Work charges cycles of pure computation.
func (t *Thread) Work(cycles uint64) { t.pre(cycles) }

// Idle blocks the thread for the given cycles without consuming CPU
// (inter-transaction think time, network waits).
func (t *Thread) Idle(cycles uint64) {
	t.pre(0)
	t.quiesceNotify()
	t.Sim.Sleep(cycles)
	t.pre(0) // honor a pause that began while idle
}

// Syscall models a system call of the given kernel-side cost. The thread is
// marked in-syscall for its duration, which stop-the-world must drain
// (§4.4).
func (t *Thread) Syscall(cycles uint64) {
	t.P.M.Telem.Enter(t.Sim, telemetry.CompKernel)
	t.pre(t.P.M.Costs.Syscall)
	t.inSyscall = true
	t.Sim.Tick(cycles)
	t.inSyscall = false
	t.pre(0)
	t.P.M.Telem.Exit(t.Sim)
}

// SyscallCaps models a blocking system call that carries capabilities into
// the kernel (write, kevent, aio_read, ...). For its duration the
// capabilities are an ephemeral kernel hoard: a revocation stop-the-world
// scans (and possibly revokes) them, and the kernel never divulges an
// unchecked capability (§4.4) — the returned slice is the post-scan view.
func (t *Thread) SyscallCaps(cycles uint64, caps []ca.Capability) []ca.Capability {
	t.P.M.Telem.Enter(t.Sim, telemetry.CompKernel)
	t.pre(t.P.M.Costs.Syscall)
	t.P.setEphemeral(t, caps)
	t.inSyscall = true
	t.quiesceNotify()
	t.Sim.Sleep(cycles)
	t.inSyscall = false
	out := t.P.takeEphemeral(t)
	t.pre(0)
	t.P.M.Telem.Exit(t.Sim)
	return out
}

// CopyRange copies n bytes from src to dst (both at their cursors),
// preserving capability tags granule by granule as a CHERI memcpy does:
// each aligned capability-width transfer goes through the full load path —
// including the load barrier — so a copy can never launder an unchecked
// capability.
func (t *Thread) CopyRange(dst, src ca.Capability, n uint64) error {
	aligned := src.Addr()%ca.GranuleSize == 0 && dst.Addr()%ca.GranuleSize == 0
	var off uint64
	for off+ca.GranuleSize <= n && aligned {
		v, err := t.LoadCap(src, off)
		if err != nil {
			return err
		}
		if err := t.StoreCap(dst, off, v); err != nil {
			return err
		}
		off += ca.GranuleSize
	}
	if off < n {
		if err := t.Load(src, off, n-off); err != nil {
			return err
		}
		if err := t.Store(dst, off, n-off); err != nil {
			return err
		}
	}
	return nil
}

// Reg returns register i's capability.
func (t *Thread) Reg(i int) ca.Capability {
	if i >= len(t.regs) {
		return ca.Capability{}
	}
	return t.regs[i]
}

// SetReg stores a capability into register i, growing the file as needed
// (the file models registers plus the spilled stack the kernel scans).
func (t *Thread) SetReg(i int, c ca.Capability) {
	for len(t.regs) <= i {
		t.regs = append(t.regs, ca.Capability{})
	}
	t.regs[i] = c
}

// RegCount returns the size of the register file.
func (t *Thread) RegCount() int { return len(t.regs) }

// --- address translation ---------------------------------------------------

// translate resolves va on this thread's core, charging TLB and fault
// costs and materializing demand-zero pages. It returns the live PTE and
// the generation bit the core's TLB holds for the page — which may be stale
// if the revoker updated the PTE after the entry was cached; capability
// loads use that staleness to decide between the TLB-refill fast path and a
// genuine load-generation fault (§4.3).
func (t *Thread) translate(va uint64) (pte *vm.PTE, tlbGen uint8, err error) {
	core := t.Sim.CoreID()
	costs := &t.P.M.Costs // a copy would move the whole table on every access
	if gen, ok := t.P.AS.TLBLookup(core, va); ok {
		t.Sim.Tick(costs.TLBHit)
		live, lok := t.P.AS.Lookup(va)
		if !lok {
			// TLB entry for a page unmapped meanwhile; fall through to the
			// slow path, which will fault.
			t.P.AS.TLBInvalidate(core, va)
		} else {
			return live, gen, nil
		}
	}
	t.Sim.Tick(costs.TLBMiss)
	pte, faulted, err := t.P.AS.EnsureMapped(va)
	if err != nil {
		return nil, 0, err
	}
	if faulted {
		t.Sim.Tick(costs.SoftFault)
	}
	t.P.AS.TLBFill(core, va, pte)
	return pte, pte.Gen, nil
}

// checkColor enforces the §7.3 coloring composition on an access through c
// to the granule at (frame, g).
func (t *Thread) checkColor(c ca.Capability, frame tmem.FrameID, g int, va uint64) error {
	if !t.P.colorMode {
		return nil
	}
	if c.HasPerms(ca.PermRecolor) {
		// Elevated authority (the allocator's heap capabilities, §7.3):
		// recoloring authority subsumes access at any color.
		return nil
	}
	if mc := t.P.M.Phys.ColorOf(frame, g); mc != c.Color() {
		t.P.stats.ColorTraps++
		return fmt.Errorf("kernel: color mismatch at 0x%x: capability c%d, memory c%d", va, c.Color(), mc)
	}
	return nil
}

// busAccess charges a memory access at va.
func (t *Thread) busAccess(va uint64, write bool) {
	t.Sim.Tick(t.P.M.Bus.Access(t.Sim.CoreID(), va, t.Agent, write))
}

// --- data access -----------------------------------------------------------

// Load models a data load of size bytes at c.Addr()+off.
func (t *Thread) Load(c ca.Capability, off, size uint64) error {
	t.pre(t.P.M.Costs.Op)
	d := c.AddAddr(off)
	if err := d.CheckAccess(size, ca.PermLoad); err != nil {
		return err
	}
	pte, _, err := t.translate(d.Addr())
	if err != nil {
		return err
	}
	if size > 0 && t.P.colorMode {
		_, g := vm.GranuleOf(d.Addr())
		if err := t.checkColor(d, pte.Frame, g, d.Addr()); err != nil {
			return err
		}
	}
	t.Sim.Tick(t.P.M.Bus.AccessRange(t.Sim.CoreID(), d.Addr(), size, t.Agent, false))
	t.P.stats.Loads++
	return nil
}

// Store models a data store of size bytes at c.Addr()+off. Tags of all
// granules it covers are cleared.
func (t *Thread) Store(c ca.Capability, off, size uint64) error {
	t.pre(t.P.M.Costs.Op)
	d := c.AddAddr(off)
	if err := d.CheckAccess(size, ca.PermStore); err != nil {
		return err
	}
	va := d.Addr()
	end := va + size
	for va < end {
		pte, _, err := t.translate(va)
		if err != nil {
			return err
		}
		pageEnd := (va &^ (vm.PageSize - 1)) + vm.PageSize
		n := end
		if n > pageEnd {
			n = pageEnd
		}
		_, g := vm.GranuleOf(va)
		if err := t.checkColor(d, pte.Frame, g, va); err != nil {
			return err
		}
		gFirst := int(va%vm.PageSize) / ca.GranuleSize
		gLast := int((n-1)%vm.PageSize) / ca.GranuleSize
		t.P.M.Phys.StoreData(pte.Frame, gFirst, gLast-gFirst+1)
		t.Sim.Tick(t.P.M.Bus.AccessRange(t.Sim.CoreID(), va, n-va, t.Agent, true))
		va = n
	}
	t.P.stats.Stores++
	return nil
}

// --- capability access (§3.2, §4.1) ----------------------------------------

// LoadCap models a capability-width load at c.Addr()+off, which must be
// granule-aligned. If the loaded value is tagged, the per-page capability
// load barrier applies: a generation mismatch between the core and the
// page's TLB entry is resolved by re-reading the PTE (TLB refill if the
// revoker already swept the page) or by taking a load fault handled by the
// armed revoker, which sweeps the page and self-heals the access.
func (t *Thread) LoadCap(c ca.Capability, off uint64) (ca.Capability, error) {
	t.pre(t.P.M.Costs.Op)
	d := c.AddAddr(off)
	if err := d.CheckAccess(ca.GranuleSize, ca.PermLoad); err != nil {
		return ca.Capability{}, err
	}
	va := d.Addr()
	if va%ca.GranuleSize != 0 {
		return ca.Capability{}, fmt.Errorf("kernel: misaligned capability load at 0x%x", va)
	}
	pte, tlbGen, err := t.translate(va)
	if err != nil {
		return ca.Capability{}, err
	}
	_, g := vm.GranuleOf(va)
	if err := t.checkColor(d, pte.Frame, g, va); err != nil {
		return ca.Capability{}, err
	}
	t.busAccess(va, false)
	v := t.P.M.Phys.LoadCap(pte.Frame, g)
	t.P.stats.CapLoads++
	if !v.Tag() {
		return v, nil
	}
	if !d.HasPerms(ca.PermLoadCap) {
		// Loads without LoadCap authority strip tags.
		return v.ClearTag(), nil
	}
	core := t.Sim.CoreID()
	if pte.Bits&vm.PTECapLoadTrap != 0 && t.P.barrierArmed {
		// §7.6 always-trap disposition: every tagged load from this page
		// traps; the handler installs a current-generation PTE (and sweeps
		// if the page has become dirty during an epoch).
		return t.loadBarrierFault(v, va, pte, g, core, 0)
	}
	if tlbGen != t.P.AS.CoreGen(core) {
		// The TLB's generation does not match the core's: trap.
		if pte.Gen == t.P.AS.CoreGen(core) {
			// The revoker already swept this page and updated the PTE; the
			// TLB was merely out of date. Refill and continue (§4.3's
			// cheap path).
			t.Sim.Tick(t.P.M.Costs.TLBRefill)
			t.P.AS.TLBFill(core, va, pte)
			t.P.stats.TLBRefills++
		} else if t.P.barrierArmed {
			// Genuine load-generation fault: the armed revoker sweeps the
			// page in our context and self-heals the load (§3.2).
			return t.loadBarrierFault(v, va, pte, g, core, 1)
		} else {
			// No barrier armed: generations must always match.
			panic(fmt.Sprintf("kernel: generation mismatch at 0x%x without armed barrier", va))
		}
	}
	return t.filterColor(v), nil
}

// loadBarrierFault takes the capability load barrier's fault on the tagged
// value v loaded from va (granule g of pte's frame): the armed revoker's
// handler runs in this thread's context, then the load is re-executed.
// core is the core the load ran on, captured before the handler, which can
// yield and migrate the thread. arg2 is the fault instant's Arg2: 0 for an
// always-trap page, 1 for a generation mismatch.
func (t *Thread) loadBarrierFault(v ca.Capability, va uint64, pte *vm.PTE, g, core int, arg2 uint64) (ca.Capability, error) {
	if h := t.P.Inject.SuppressGenFault; h != nil && h(va, v) {
		// Injected fault: the barrier fails to fire and the load completes
		// with the unchecked, possibly stale value.
		return t.filterColor(v), nil
	}
	t.P.stats.GenFaults++
	t.P.M.Trace.Instant(t.Sim.Now(), core, bus.AgentKernel,
		trace.KindFault, t.P.epoch, va, arg2)
	start := t.Sim.CPU()
	t.P.M.Telem.Enter(t.Sim, telemetry.CompBarrierFault)
	t.Sim.Tick(t.P.M.Costs.TrapEntry)
	t.P.barrier.HandleLoadGenFault(t, va, pte)
	t.P.M.Telem.Exit(t.Sim)
	t.P.stats.GenFaultCycles += t.Sim.CPU() - start
	t.P.AS.TLBFill(core, va, pte)
	t.busAccess(va, false)
	return t.filterColor(t.P.M.Phys.LoadCap(pte.Frame, g)), nil
}

// filterColor applies the §7.3 load filter: a capability whose color no
// longer matches its memory's is revoked on its way into the register file
// (CHERIoT-style, §6.3). Every load path — including the self-healing
// reload after a generation fault — must pass through it.
func (t *Thread) filterColor(v ca.Capability) ca.Capability {
	if !t.P.colorMode || !v.Tag() {
		return v
	}
	if vc := v.Color(); vc != t.colorOfTarget(v) {
		t.P.stats.ColorTraps++
		return v.ClearTag()
	}
	return v
}

// colorOfTarget returns the memory color at a capability's base, or the
// capability's own color if the base is unmapped (nothing to compare).
func (t *Thread) colorOfTarget(v ca.Capability) uint8 {
	pte, ok := t.P.AS.Lookup(v.Base())
	if !ok {
		return v.Color()
	}
	_, g := vm.GranuleOf(v.Base())
	return t.P.M.Phys.ColorOf(pte.Frame, g)
}

// StoreCap models a capability-width store of v at c.Addr()+off. Tagged
// stores require PermStoreCap and a PTECapWrite mapping, and set the page's
// capability-dirty bits (§4.2).
func (t *Thread) StoreCap(c ca.Capability, off uint64, v ca.Capability) error {
	t.pre(t.P.M.Costs.Op)
	d := c.AddAddr(off)
	need := ca.PermStore
	if v.Tag() {
		need |= ca.PermStoreCap
	}
	if err := d.CheckAccess(ca.GranuleSize, need); err != nil {
		return err
	}
	va := d.Addr()
	if va%ca.GranuleSize != 0 {
		return fmt.Errorf("kernel: misaligned capability store at 0x%x", va)
	}
	pte, _, err := t.translate(va)
	if err != nil {
		return err
	}
	_, g := vm.GranuleOf(va)
	if err := t.checkColor(d, pte.Frame, g, va); err != nil {
		return err
	}
	if v.Tag() && pte.Bits&vm.PTECapWrite == 0 {
		return &vm.Fault{Kind: vm.FaultCapStore, VA: va}
	}
	if v.Tag() && pte.Bits&vm.PTECapDirty == 0 {
		if h := t.P.Inject.DropCapDirty; h != nil && h(va) {
			// Injected fault: the hardware dirty-bit update is lost; the
			// store itself still lands below.
		} else {
			pte.Bits |= vm.PTECapDirty | vm.PTEEverCapDirty
			t.P.stats.CDBitSets++
			t.Sim.Tick(t.P.M.Costs.PTEUpdate)
		}
	}
	t.busAccess(va, true)
	t.P.M.Phys.StoreCap(pte.Frame, g, v)
	t.P.stats.CapStores++
	return nil
}

// --- mapping system calls ---------------------------------------------------

// Mmap reserves address space and returns the reservation and its root
// capability (§6.2).
func (t *Thread) Mmap(length uint64, perms ca.Perms) (*vm.Reservation, error) {
	t.Syscall(t.P.M.Costs.Mmap)
	return t.P.AS.Reserve(length, perms)
}

// MmapShared reserves address space for an inter-process shared mapping
// (a shared file mapping, say). Capabilities are architecturally
// meaningless outside their address space, so such pages are prohibited
// from carrying tags (footnote 13): their PTEs lack PTECapWrite and any
// tagged store faults.
func (t *Thread) MmapShared(length uint64) (*vm.Reservation, error) {
	t.Syscall(t.P.M.Costs.Mmap)
	r, err := t.P.AS.Reserve(length, ca.PermLoad|ca.PermStore|ca.PermGlobal)
	if err != nil {
		return nil, err
	}
	t.P.AS.MarkNoCaps(r)
	return r, nil
}

// Munmap unmaps [va, va+length). If this kills the whole reservation, the
// reservation is returned with dead=true; the caller must quarantine it
// until a revocation pass completes before the span can be recycled.
func (t *Thread) Munmap(va, length uint64) (r *vm.Reservation, dead bool, err error) {
	t.Syscall(t.P.M.Costs.Munmap + uint64(length/vm.PageSize)*t.P.M.Costs.PTEUpdate)
	return t.P.AS.UnmapRange(va, length)
}

// --- shadow bitmap access ----------------------------------------------------

// PaintShadow paints the revocation bitmap for [addr, addr+length) under
// auth, charging user-space bitmap write traffic.
func (t *Thread) PaintShadow(auth ca.Capability, addr, length uint64) error {
	t.pre(t.P.M.Costs.Op)
	t.Sim.Tick(t.P.M.Bus.AccessRange(t.Sim.CoreID(), shadow.VAOf(addr),
		maxU64(1, length/ca.GranuleSize/8), t.Agent, true))
	t.P.M.Trace.Instant(t.Sim.Now(), t.Sim.CoreID(), t.Agent,
		trace.KindPaint, t.P.epoch, addr, length)
	return t.P.Shadow.Paint(auth, addr, length)
}

// UnpaintShadow clears the bitmap for [addr, addr+length) under auth.
func (t *Thread) UnpaintShadow(auth ca.Capability, addr, length uint64) error {
	t.pre(t.P.M.Costs.Op)
	t.Sim.Tick(t.P.M.Bus.AccessRange(t.Sim.CoreID(), shadow.VAOf(addr),
		maxU64(1, length/ca.GranuleSize/8), t.Agent, true))
	t.P.M.Trace.Instant(t.Sim.Now(), t.Sim.CoreID(), t.Agent,
		trace.KindUnpaint, t.P.epoch, addr, length)
	return t.P.Shadow.Unpaint(auth, addr, length)
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
