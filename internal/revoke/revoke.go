// Package revoke implements global subset capability revocation (§2.2) in
// four strategies:
//
//   - CHERIvoke: a single stop-the-world sweep of all capability-carrying
//     pages, the baseline of Xia et al.
//   - Cornucopia: a concurrent sweep of capability-dirty pages followed by
//     a stop-the-world re-sweep of pages re-dirtied meanwhile (§2.2.5).
//   - Reloaded: the paper's contribution — a near-instant stop-the-world
//     phase (bump per-core capability load generations, scan register files
//     and kernel hoards), then a fully concurrent background sweep racing
//     self-healing per-page load-barrier faults (§3.2, §4.3).
//   - PaintSync: no sweeping at all; epochs complete immediately. This
//     measures quarantine machinery costs in isolation (§5's "Paint+sync").
//
// All strategies share the epoch protocol of §2.2.3: the public counter is
// odd while an epoch is in flight, and memory painted at epoch e may be
// reused once the counter reaches e+2 (e even) or e+3 (e odd).
package revoke

import (
	"fmt"
	"strings"

	"repro/internal/bus"
	"repro/internal/ca"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Strategy selects the revocation algorithm.
type Strategy int

// The implemented strategies.
const (
	// PaintSync quarantines and synchronizes epochs but never sweeps.
	PaintSync Strategy = iota
	// CHERIvoke sweeps everything with the world stopped.
	CHERIvoke
	// Cornucopia sweeps concurrently, then re-sweeps re-dirtied pages with
	// the world stopped.
	Cornucopia
	// Reloaded arms the per-page capability load barrier and sweeps in the
	// background.
	Reloaded
	// CornucopiaTwoPass is the §3.1 ablation: Cornucopia with a second
	// concurrent pass over re-dirtied pages before stopping the world. The
	// paper (citing Cornucopia's fig. 15) reports it reduces pause times
	// very little while increasing total work and DRAM traffic.
	CornucopiaTwoPass
)

// String names the strategy as the paper does.
func (s Strategy) String() string {
	switch s {
	case PaintSync:
		return "Paint+sync"
	case CHERIvoke:
		return "CHERIvoke"
	case Cornucopia:
		return "Cornucopia"
	case Reloaded:
		return "Reloaded"
	case CornucopiaTwoPass:
		return "Cornucopia-2pass"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Valid reports whether s names an implemented strategy.
func (s Strategy) Valid() bool { return s >= PaintSync && s <= CornucopiaTwoPass }

// Strategies lists every implemented strategy in declaration order.
func Strategies() []Strategy {
	return []Strategy{PaintSync, CHERIvoke, Cornucopia, Reloaded, CornucopiaTwoPass}
}

// ParseStrategy resolves a strategy from its display name or a common
// lower-case alias, rejecting anything it does not implement.
func ParseStrategy(name string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "paintsync", "paint+sync", "paint-sync":
		return PaintSync, nil
	case "cherivoke":
		return CHERIvoke, nil
	case "cornucopia":
		return Cornucopia, nil
	case "reloaded", "cornucopia-reloaded":
		return Reloaded, nil
	case "cornucopia-2pass", "cornucopia2pass", "twopass", "2pass":
		return CornucopiaTwoPass, nil
	}
	return 0, fmt.Errorf("revoke: unknown strategy %q", name)
}

// Config parameterizes a revocation Service.
type Config struct {
	Strategy Strategy
	// RevokerCores pins the background revoker thread (nil = unpinned, as
	// in the gRPC experiment; the SPEC and pgbench experiments pin to core
	// 2).
	RevokerCores []int
	// Workers is the number of background sweep threads (§7.1). Zero or
	// one means the classic single-threaded revoker.
	Workers int
	// AlwaysTrapCleanPages enables the §7.6 PTE disposition for Reloaded:
	// capability-clean pages are armed with an always-trap bit once and
	// then skipped entirely by later background passes, instead of having
	// their generation refreshed every epoch.
	AlwaysTrapCleanPages bool
}

// Validate rejects malformed configurations; construction goes through it.
func (c Config) Validate() error {
	if !c.Strategy.Valid() {
		return fmt.Errorf("revoke: invalid strategy %s", c.Strategy)
	}
	if c.Workers < 0 {
		return fmt.Errorf("revoke: negative worker count %d", c.Workers)
	}
	return nil
}

// EpochObserver watches epoch boundaries. The soundness oracle
// (internal/oracle) implements it to audit machine-wide invariants at the
// instants the protocol promises them; both calls run with no intervening
// virtual-time yield, so observers see a consistent machine.
type EpochObserver interface {
	// EpochBegin fires right after the opening counter advance (epoch is
	// the new, odd value).
	EpochBegin(th *kernel.Thread, epoch uint64)
	// EpochEnd fires right after the closing counter advance, with the
	// completed record.
	EpochEnd(th *kernel.Thread, rec *EpochRecord)
}

// FaultHooks are optional injection points inside the revoker
// (internal/fault). Each is consulted at its site when non-nil; all nil
// means no faults.
type FaultHooks struct {
	// WorkerCrash is consulted by a background sweep worker before each
	// page; true kills the worker mid-slice. The service thread reclaims
	// the abandoned remainder and respawns a replacement.
	WorkerCrash func() bool
	// CrashStallCycles is how long a crashing worker hangs before its
	// slice is abandoned (the stall half of "stalls and crashes").
	CrashStallCycles uint64
	// PublishDelay returns extra cycles the service idles between
	// finishing an epoch's work and publishing the closing counter
	// advance (0 = none). Allocators keep blocking on the stale counter
	// for the duration.
	PublishDelay func() uint64
}

// RecoveryStats counts the revoker's abort-and-retry actions over the
// service's lifetime. All zero in normal operation.
type RecoveryStats struct {
	// SlicesReclaimed counts crashed workers' sweep slices re-swept by
	// the service thread.
	SlicesReclaimed uint64 `json:"slices_reclaimed,omitempty"`
	// WorkersRespawned counts replacement sweep workers spawned after a
	// crash.
	WorkersRespawned uint64 `json:"workers_respawned,omitempty"`
	// ShootdownRetries counts TLB shootdown broadcasts re-issued after an
	// incomplete-delivery verify.
	ShootdownRetries uint64 `json:"shootdown_retries,omitempty"`
	// EpochRetries counts end-of-epoch verify failures that re-swept
	// stale pages.
	EpochRetries uint64 `json:"epoch_retries,omitempty"`
	// PublishDelays counts absorbed epoch-counter publication delays.
	PublishDelays uint64 `json:"publish_delays,omitempty"`
}

// Total sums all recovery actions.
func (r RecoveryStats) Total() uint64 {
	return r.SlicesReclaimed + r.WorkersRespawned + r.ShootdownRetries + r.EpochRetries + r.PublishDelays
}

// KindRecovery trace Arg values: which recovery action fired.
const (
	RecoverySliceReclaim uint64 = iota + 1
	RecoveryWorkerRespawn
	RecoveryShootdownReissue
	RecoveryEpochResweep
	RecoveryPublishDelay
)

// Abort-and-retry bounds: retries per verify failure, and the base
// simulated-time backoff (doubled per attempt) charged before each retry.
const (
	maxShootdownRetries   = 3
	maxEpochRetries       = 3
	recoveryBackoffCycles = 2_000
)

// EpochRecord captures one revocation epoch's phase timing and work.
type EpochRecord struct {
	// Epoch is the (odd) counter value during this pass.
	Epoch uint64
	// StartCycle and EndCycle bracket the whole pass.
	StartCycle, EndCycle uint64
	// STWCycles is the stop-the-world phase duration.
	STWCycles uint64
	// ConcurrentCycles is the concurrent/background phase duration.
	ConcurrentCycles uint64
	// FaultCount and FaultCycles accumulate Reloaded's application-side
	// load-barrier faults during this epoch.
	FaultCount, FaultCycles uint64
	// PagesVisited, CapsVisited and CapsRevoked count sweep work; for
	// Cornucopia, PagesResweptSTW counts the re-dirtied pages swept with
	// the world stopped.
	PagesVisited, PagesResweptSTW uint64
	CapsVisited, CapsRevoked      uint64
	// PagesSkippedClean counts pages the §7.6 always-trap disposition let
	// the background pass skip outright.
	PagesSkippedClean uint64
	// SlicesReclaimed, WorkersRespawned, ShootdownRetries and EpochRetries
	// count this epoch's abort-and-retry recovery actions (fault-injection
	// campaigns; all zero in normal operation). PublishDelayCycles is the
	// absorbed epoch-counter publication delay.
	SlicesReclaimed    uint64 `json:",omitempty"`
	WorkersRespawned   uint64 `json:",omitempty"`
	ShootdownRetries   uint64 `json:",omitempty"`
	EpochRetries       uint64 `json:",omitempty"`
	PublishDelayCycles uint64 `json:",omitempty"`
}

// Service runs revocation for one process. It owns the background revoker
// thread(s) and implements the load-barrier fault handler when the strategy
// is Reloaded.
type Service struct {
	P   *kernel.Process
	cfg Config

	reqEv    *sim.Event
	workEv   *sim.Event
	workDone *sim.Event

	reqPending bool
	shutdown   bool

	records []EpochRecord
	cur     *EpochRecord

	// faultBase tracks kernel GenFault counters at epoch start so the
	// record holds per-epoch deltas.
	faultBase       uint64
	faultCyclesBase uint64

	// pool, when non-nil, serves this service's requests from the shared
	// in-kernel worker pool (§7.1) instead of a dedicated thread.
	pool *Pool

	// deadResv holds mmap-level quarantined reservations (§6.2) with the
	// epoch counter value they may be released at.
	deadResv []deadReservation

	// worker coordination (§7.1). Slices are claimed dynamically: whoever
	// is free — a worker thread or the service thread itself — takes the
	// next unclaimed slice, so the epoch converges even if some (or all)
	// workers are absent: never spawned for a pool-attached service, or
	// already exited at shutdown.
	workSlices [][]pageRef
	workSeq    int
	workNext   int // next unclaimed slice index
	workLeft   int // slices not yet fully swept
	workGen    uint8

	// abort-and-retry recovery state. abandoned holds the unswept
	// remainders of crashed workers' slices until the service thread
	// reclaims them; respawned counts replacement workers (for naming).
	abandoned [][]pageRef
	respawned int

	// pageBuf backs the page lists pagesWhere returns.
	// workSlices and abandoned remainders alias a list only until the
	// sweepShared (or sweepPages) call that sweeps it returns: sweepShared
	// waits until every slice has been swept or reclaimed. Each list is
	// taken after the previous one's sweep has returned, so refilling the
	// array from the next call on overwrites nothing still in use.
	pageBuf []pageRef

	obs   EpochObserver
	hooks FaultHooks
	recov RecoveryStats
}

type deadReservation struct {
	r      *vm.Reservation
	auth   ca.Capability
	target uint64
}

type pageRef struct {
	vpn uint64
	pte *vm.PTE
}

// NewService creates (but does not start) a revocation service. It panics
// on a configuration Validate rejects; callers taking strategy names from
// user input should validate first.
func NewService(p *kernel.Process, cfg Config) *Service {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &Service{
		P:        p,
		cfg:      cfg,
		reqEv:    p.M.Eng.NewEvent(),
		workEv:   p.M.Eng.NewEvent(),
		workDone: p.M.Eng.NewEvent(),
	}
	if cfg.Strategy == Reloaded {
		p.SetLoadBarrier(s)
	}
	return s
}

// Start spawns the revoker thread (and §7.1 worker threads), which run
// until Shutdown. Services attached to a shared Pool must not be started:
// the pool's workers serve them.
func (s *Service) Start() {
	if s.pool != nil {
		panic("revoke: Start on a pool-attached service")
	}
	s.P.Spawn("revoker", s.cfg.RevokerCores, func(th *kernel.Thread) {
		th.Agent = bus.AgentRevoker
		s.P.M.Telem.SetBase(th.Sim, telemetry.CompRevoker)
		s.run(th)
	})
	for i := 1; i < s.cfg.Workers; i++ {
		i := i
		s.P.Spawn(fmt.Sprintf("revoker-w%d", i), s.cfg.RevokerCores, func(th *kernel.Thread) {
			th.Agent = bus.AgentRevoker
			s.P.M.Telem.SetBase(th.Sim, telemetry.CompRevoker)
			s.worker(th, i)
		})
	}
}

// RequestRevocation asks the service to run an epoch; it returns
// immediately with the epoch counter at the time of the request. Redundant
// requests coalesce.
func (s *Service) RequestRevocation(th *kernel.Thread) uint64 {
	e := s.P.Epoch()
	s.reqPending = true
	if s.pool != nil {
		s.pool.submit(th, s)
	} else {
		s.reqEv.Broadcast(th.Sim)
	}
	return e
}

// Shutdown stops the revoker thread(s) after any in-flight work.
func (s *Service) Shutdown(th *kernel.Thread) {
	s.shutdown = true
	s.reqEv.Broadcast(th.Sim)
	s.workEv.Broadcast(th.Sim)
}

// Records returns the per-epoch phase records.
func (s *Service) Records() []EpochRecord { return s.records }

// Strategy returns the configured strategy.
func (s *Service) Strategy() Strategy { return s.cfg.Strategy }

// SetObserver installs an epoch-boundary observer (nil removes it).
func (s *Service) SetObserver(o EpochObserver) { s.obs = o }

// SetFaultHooks installs the revoker-side fault-injection hooks.
func (s *Service) SetFaultHooks(h FaultHooks) { s.hooks = h }

// Recovery returns the service's lifetime abort-and-retry counters.
func (s *Service) Recovery() RecoveryStats { return s.recov }

// QuarantinedReservation reports whether addr lies inside a dead mmap-level
// reservation (§6.2) still held in quarantine, returning its span. The
// soundness oracle uses it to attribute painted granules outside the heap.
func (s *Service) QuarantinedReservation(addr uint64) (base, length uint64, ok bool) {
	for _, d := range s.deadResv {
		if addr >= d.r.Base && addr < d.r.Base+d.r.Length {
			return d.r.Base, d.r.Length, true
		}
	}
	return 0, 0, false
}

// QuarantineReservation paints and holds a fully-unmapped reservation
// (§6.2) until a future epoch completes, then releases its address space.
func (s *Service) QuarantineReservation(th *kernel.Thread, r *vm.Reservation) {
	// The kernel conjures paint authority over the dead span.
	auth := ca.NewRoot(r.Base, r.Length, ca.PermPaint)
	if err := s.P.Shadow.Paint(auth, r.Base, r.Length); err != nil {
		panic(fmt.Sprintf("revoke: reservation paint: %v", err))
	}
	s.deadResv = append(s.deadResv, deadReservation{
		r: r, auth: auth, target: kernel.EpochClearTarget(s.P.Epoch()),
	})
}

// run is the revoker thread's main loop.
func (s *Service) run(th *kernel.Thread) {
	for {
		th.WaitOn(s.reqEv, func() bool { return s.reqPending || s.shutdown })
		if !s.reqPending {
			if s.shutdown {
				return
			}
			continue
		}
		s.reqPending = false
		s.RevokeEpoch(th)
	}
}

// RevokeEpoch performs one full revocation epoch synchronously on th.
// (The Service's own thread calls this; tests and custom policies may too.)
func (s *Service) RevokeEpoch(th *kernel.Thread) EpochRecord {
	p := s.P
	rec := EpochRecord{StartCycle: th.Sim.Now()}
	stats := p.Stats()
	s.faultBase = stats.GenFaults
	s.faultCyclesBase = stats.GenFaultCycles

	p.AdvanceEpoch(th) // counter becomes odd: pass in flight
	rec.Epoch = p.Epoch()
	s.cur = &rec
	p.M.Trace.Begin(th.Sim.Now(), th.Sim.CoreID(), bus.AgentRevoker,
		trace.KindEpoch, rec.Epoch, 0, 0)
	if s.obs != nil {
		s.obs.EpochBegin(th, rec.Epoch)
	}

	switch s.cfg.Strategy {
	case PaintSync:
		// No sweeping: the epoch completes immediately.
		th.Work(p.M.Costs.Syscall)
	case CHERIvoke:
		s.epochCHERIvoke(th, &rec)
	case Cornucopia:
		s.epochCornucopia(th, &rec)
	case CornucopiaTwoPass:
		s.epochCornucopiaTwoPass(th, &rec)
	case Reloaded:
		s.epochReloaded(th, &rec)
	}

	if s.hooks.PublishDelay != nil {
		// Injected fault: the closing counter advance is held back.
		// Absorption is safe — the sweep is complete, so no new violations
		// can appear while allocators block on the stale counter — but the
		// delay is visible as quarantine back-pressure and is recorded.
		if d := s.hooks.PublishDelay(); d > 0 {
			rec.PublishDelayCycles += d
			s.recov.PublishDelays++
			s.traceRecovery(th, RecoveryPublishDelay, d)
			th.Idle(d)
		}
	}
	stats = p.Stats()
	rec.FaultCount = stats.GenFaults - s.faultBase
	rec.FaultCycles = stats.GenFaultCycles - s.faultCyclesBase
	p.AdvanceEpoch(th) // counter even: pass complete
	rec.EndCycle = th.Sim.Now()
	p.M.Trace.End(rec.EndCycle, th.Sim.CoreID(), bus.AgentRevoker,
		trace.KindEpoch, rec.Epoch, rec.CapsRevoked, rec.PagesVisited)
	if s.obs != nil {
		s.obs.EpochEnd(th, &rec)
	}
	s.cur = nil
	s.records = append(s.records, rec)
	if tl := p.M.Telem; tl.Enabled() {
		tl.Add(telemetry.StdEpochsTotal, 1)
		tl.Add(telemetry.StdSweptPagesTotal, float64(rec.PagesVisited))
		tl.Add(telemetry.StdRevokedCapsTotal, float64(rec.CapsRevoked))
		tl.Observe(telemetry.StdSTWCycles, float64(rec.STWCycles))
		tl.Observe(telemetry.StdEpochCycles, float64(rec.EndCycle-rec.StartCycle))
	}
	s.releaseDeadReservations(th)
	return rec
}

// releaseDeadReservations recycles mmap-quarantined address space whose
// clearance epoch has arrived.
func (s *Service) releaseDeadReservations(th *kernel.Thread) {
	kept := s.deadResv[:0]
	for _, d := range s.deadResv {
		if s.P.Epoch() >= d.target {
			if err := s.P.Shadow.Unpaint(d.auth, d.r.Base, d.r.Length); err != nil {
				panic(fmt.Sprintf("revoke: reservation unpaint: %v", err))
			}
			s.P.AS.ReleaseReservation(d.r)
			th.Work(s.P.M.Costs.Munmap)
		} else {
			kept = append(kept, d)
		}
	}
	s.deadResv = kept
}

// pagesWhere lists the mapped pages whose PTE satisfies keep, in VA order,
// in pageBuf.
func (s *Service) pagesWhere(keep func(*vm.PTE) bool) []pageRef {
	if n := s.P.AS.MappedPageCount(); cap(s.pageBuf) < n {
		// At least double it, so a growing heap reallocates the list
		// O(log pages) times in a run, not at nearly every epoch.
		s.pageBuf = make([]pageRef, 0, max(n, 2*cap(s.pageBuf)))
	}
	pages := s.pageBuf[:0]
	s.P.AS.ForEachMappedPage(func(vpn uint64, pte *vm.PTE) bool {
		if keep(pte) {
			pages = append(pages, pageRef{vpn, pte})
		}
		return true
	})
	s.pageBuf = pages
	return pages
}

// everCapDirty keeps the pages that have ever carried a capability: clean
// pages need no visit under CHERIvoke/Cornucopia, whose correctness rests
// on the store barrier (§2.2.4).
func everCapDirty(pte *vm.PTE) bool { return pte.Bits&vm.PTEEverCapDirty != 0 }

// capDirty keeps the pages stored to since their last sweep.
func capDirty(pte *vm.PTE) bool { return pte.Bits&vm.PTECapDirty != 0 }

// anyPage keeps every mapped page.
func anyPage(*vm.PTE) bool { return true }

// scanRoots scans thread register files and kernel hoards on th,
// accumulating into rec.
func (s *Service) scanRoots(th *kernel.Thread, rec *EpochRecord) {
	sc, rv := s.P.ScanRoots(th)
	rec.CapsVisited += uint64(sc)
	rec.CapsRevoked += uint64(rv)
}

// sweepPages sweeps the given pages on th, accumulating into rec.
func (s *Service) sweepPages(th *kernel.Thread, pages []pageRef, rec *EpochRecord) {
	s.P.M.Telem.Enter(th.Sim, telemetry.CompSweep)
	defer s.P.M.Telem.Exit(th.Sim)
	for _, pr := range pages {
		v, r := th.SweepPage(pr.vpn, pr.pte)
		rec.PagesVisited++
		rec.CapsVisited += uint64(v)
		rec.CapsRevoked += uint64(r)
	}
}

// --- CHERIvoke --------------------------------------------------------------

func (s *Service) epochCHERIvoke(th *kernel.Thread, rec *EpochRecord) {
	p := s.P
	t0 := th.Sim.Now()
	p.StopTheWorld(th)
	s.scanRoots(th, rec)
	s.sweepPages(th, s.pagesWhere(everCapDirty), rec)
	p.ResumeTheWorld(th)
	rec.STWCycles = th.Sim.Now() - t0
}

// --- Cornucopia (§2.2.5) -----------------------------------------------------

func (s *Service) epochCornucopia(th *kernel.Thread, rec *EpochRecord) {
	// Phase 1, concurrent: sweep every capability-carrying page while the
	// application runs. SweepPage clears the dirty bit before scanning, so
	// pages the application stores capabilities to afterwards are re-marked.
	t0 := th.Sim.Now()
	s.sweepShared(th, s.pagesWhere(everCapDirty), rec, 0)
	rec.ConcurrentCycles = th.Sim.Now() - t0
	s.cornucopiaSTW(th, rec)
}

// cornucopiaSTW is Cornucopia's stop-the-world phase: scan thread
// registers and kernel hoards, then re-sweep the pages re-dirtied during
// the concurrent phase.
func (s *Service) cornucopiaSTW(th *kernel.Thread, rec *EpochRecord) {
	p := s.P
	t1 := th.Sim.Now()
	p.StopTheWorld(th)
	s.scanRoots(th, rec)
	before := rec.PagesVisited
	s.sweepPages(th, s.pagesWhere(capDirty), rec)
	rec.PagesResweptSTW = rec.PagesVisited - before
	p.ResumeTheWorld(th)
	rec.STWCycles = th.Sim.Now() - t1
}

// epochCornucopiaTwoPass is the §3.1 ablation: iterate the concurrent
// strategy with a second pass over pages re-dirtied during the first,
// hoping to shrink the stop-the-world re-sweep. The application keeps
// dirtying pages during the second pass too, so the reduction is marginal
// while the total work grows.
func (s *Service) epochCornucopiaTwoPass(th *kernel.Thread, rec *EpochRecord) {
	t0 := th.Sim.Now()
	s.sweepShared(th, s.pagesWhere(everCapDirty), rec, 0)
	// Second concurrent pass: whatever got re-dirtied meanwhile.
	s.sweepShared(th, s.pagesWhere(capDirty), rec, 0)
	rec.ConcurrentCycles = th.Sim.Now() - t0
	s.cornucopiaSTW(th, rec)
}

// --- Cornucopia Reloaded (§3.2, §4.3) -----------------------------------------

func (s *Service) epochReloaded(th *kernel.Thread, rec *EpochRecord) {
	p := s.P
	// Phase 1, stop-the-world — brief: toggle the in-core capability load
	// generations (PTEs untouched), shoot down TLBs, and scan register
	// files and kernel hoards. From here on, the application cannot load an
	// unchecked capability: the load barrier is armed.
	t0 := th.Sim.Now()
	p.StopTheWorld(th)
	p.BumpGenerations(th)
	s.verifyShootdown(th, rec)
	p.M.Telem.Observe(telemetry.StdShootdownLatencyCycles, float64(th.Sim.Now()-t0))
	s.scanRoots(th, rec)
	p.ResumeTheWorld(th)
	rec.STWCycles = th.Sim.Now() - t0

	// Phase 2, background: visit every page whose generation is stale.
	// Application load faults perform the same visit in the foreground,
	// concurrently; visits are idempotent and the PTE generation records
	// who got there first.
	t1 := th.Sim.Now()
	newGen := p.AS.CoreGen(th.Sim.CoreID())
	s.sweepShared(th, s.pagesWhere(anyPage), rec, newGen)

	// End-of-epoch verify: every mapped page must now be at the new
	// generation (§7.6 always-trap pages intentionally stay stale). A
	// failed verify — only reachable under fault injection — aborts and
	// re-sweeps the stale remainder with simulated-time backoff.
	for retry := 0; retry < maxEpochRetries; retry++ {
		stale := s.pagesWhere(func(pte *vm.PTE) bool {
			return pte.Gen != newGen && pte.Bits&vm.PTECapLoadTrap == 0
		})
		if len(stale) == 0 {
			break
		}
		rec.EpochRetries++
		s.recov.EpochRetries++
		s.traceRecovery(th, RecoveryEpochResweep, uint64(len(stale)))
		th.Idle(recoveryBackoffCycles << uint(retry))
		s.sweepShared(th, stale, rec, newGen)
	}
	rec.ConcurrentCycles = th.Sim.Now() - t1
}

// verifyShootdown checks that the BumpGenerations TLB shootdown reached
// every core and re-issues the broadcast (bounded, with backoff) if
// delivery was incomplete. Runs under stop-the-world.
func (s *Service) verifyShootdown(th *kernel.Thread, rec *EpochRecord) {
	p := s.P
	p.M.Telem.Enter(th.Sim, telemetry.CompShootdown)
	defer p.M.Telem.Exit(th.Sim)
	for try := 0; p.AS.ShootdownIncomplete() && try < maxShootdownRetries; try++ {
		rec.ShootdownRetries++
		s.recov.ShootdownRetries++
		s.traceRecovery(th, RecoveryShootdownReissue, uint64(try+1))
		th.Sim.Tick(recoveryBackoffCycles << uint(try))
		th.Sim.Tick(uint64(p.M.Eng.Config().Cores) * p.M.Costs.IPI)
		p.AS.ShootdownAll()
	}
}

// traceRecovery emits one KindRecovery instant for an abort-and-retry
// action (Arg = Recovery* ordinal, Arg2 = action-specific detail).
func (s *Service) traceRecovery(th *kernel.Thread, action, detail uint64) {
	epoch := uint64(0)
	if s.cur != nil {
		epoch = s.cur.Epoch
	}
	s.P.M.Trace.Instant(th.Sim.Now(), th.Sim.CoreID(), bus.AgentRevoker,
		trace.KindRecovery, epoch, action, detail)
}

// visitReloaded brings one page to the current generation: a content sweep
// if the page may carry capabilities, otherwise just the PTE update
// (§7.6's "unnecessarily taking the pmap lock" cost). Idempotent.
func (s *Service) visitReloaded(th *kernel.Thread, pr pageRef, rec *EpochRecord, newGen uint8) {
	pte := pr.pte
	if pte.Gen == newGen {
		return // foreground fault (or another worker) got here first
	}
	if s.cfg.AlwaysTrapCleanPages && pte.Bits&vm.PTEEverCapDirty == 0 {
		// §7.6: leave the clean page's generation stale behind an
		// always-trap disposition. Arming costs one PTE update the first
		// time; afterwards the page costs the revoker nothing per epoch.
		if pte.Bits&vm.PTECapLoadTrap == 0 {
			pte.Bits |= vm.PTECapLoadTrap
			th.Sim.Tick(s.P.M.Costs.PTEUpdate)
		}
		rec.PagesSkippedClean++
		return
	}
	pte.Bits &^= vm.PTECapLoadTrap
	if pte.Bits&vm.PTEEverCapDirty != 0 {
		v, r := th.SweepPage(pr.vpn, pte)
		rec.PagesVisited++
		rec.CapsVisited += uint64(v)
		rec.CapsRevoked += uint64(r)
		if v == 0 {
			// The page holds no capabilities: note that, so future epochs
			// skip its content (§4.5's clean-page detection).
			pte.Bits &^= vm.PTEEverCapDirty
		}
	} else {
		rec.PagesVisited++
	}
	th.Sim.Tick(s.P.M.Costs.PTEUpdate)
	pte.Gen = newGen
}

// HandleLoadGenFault implements kernel.LoadBarrierHandler: the application
// thread that tripped the barrier sweeps the target page itself and heals
// the PTE (§4.3's foreground work).
func (s *Service) HandleLoadGenFault(th *kernel.Thread, va uint64, pte *vm.PTE) {
	prev := th.Agent
	th.Agent = bus.AgentRevoker
	newGen := th.P.AS.CoreGen(th.Sim.CoreID())
	if pte.Bits&vm.PTECapLoadTrap != 0 && (s.cur == nil || pte.Bits&vm.PTEEverCapDirty == 0) {
		// §7.6 trap resolution: install a PTE with the current generation
		// and drop the always-trap disposition. No sweep is needed — the
		// page was capability-clean when armed, and any capability stored
		// to it since was already checked by the load barrier.
		pte.Bits &^= vm.PTECapLoadTrap
		pte.Gen = newGen
		th.Sim.Tick(th.P.M.Costs.PTEUpdate)
		th.Agent = prev
		return
	}
	rec := s.cur
	if rec == nil {
		// Between this trap being raised and the handler running, the
		// background revoker healed the page AND completed the epoch (the
		// "another visitor got there first" case of §4.3). Nothing to do:
		// the re-executed load sees the current generation. A genuinely
		// stale page with no epoch in flight would be a broken invariant.
		if pte.Gen != newGen {
			panic(fmt.Sprintf("revoke: stale page %#x (gen %d vs %d) outside a revocation epoch",
				va, pte.Gen, newGen))
		}
		th.Agent = prev
		return
	}
	th.P.M.Telem.Enter(th.Sim, telemetry.CompSweep)
	s.visitReloaded(th, pageRef{va >> vm.PageShift, pte}, rec, newGen)
	th.P.M.Telem.Exit(th.Sim)
	th.Agent = prev
}

// --- shared/background sweeping (§7.1) ----------------------------------------

// sweepShared distributes the page list over the worker pool (if any) or
// sweeps inline. newGen selects Reloaded's visit (non-zero semantics: pass
// the generation) versus Cornucopia's plain sweep (gen handling off, pass
// 0 and use plain SweepPage); we disambiguate with the strategy.
//
// With Workers > 1 the page list is partitioned into Workers slices which
// are claimed dynamically: the broadcast wakes the worker threads, and the
// service thread drains alongside them. When Workers exceeds the page
// count the tail slices are empty — each is still claimed and counted, so
// workLeft converges. If no worker thread ever claims (the service is
// pool-attached, or workers already exited at shutdown) the service
// thread drains every slice itself; the epoch never deadlocks.
func (s *Service) sweepShared(th *kernel.Thread, pages []pageRef, rec *EpochRecord, newGen uint8) {
	if s.cfg.Workers <= 1 {
		s.sweepSlice(th, pages, rec, newGen, 0, false)
		return
	}
	n := s.cfg.Workers
	s.workSlices = make([][]pageRef, n)
	for i := range s.workSlices {
		lo := len(pages) * i / n
		hi := len(pages) * (i + 1) / n
		s.workSlices[i] = pages[lo:hi]
	}
	s.workNext = 0
	s.workLeft = n
	s.workGen = newGen
	s.workSeq++
	s.workEv.Broadcast(th.Sim)
	// Let the woken workers reach their run queues before claiming slices
	// ourselves: the engine runs a thread up to its skew quantum, so
	// without this wakeup-latency idle a short sweep would be fully
	// drained by the service thread before any worker is scheduled.
	th.Idle(s.P.M.Costs.IPI)
	s.drainSlices(th, rec, newGen, false)
	for {
		th.WaitOn(s.workDone, func() bool {
			return s.workLeft == 0 || len(s.abandoned) > 0
		})
		if len(s.abandoned) == 0 {
			break
		}
		s.reclaimAbandoned(th, rec, newGen)
	}
	s.workSlices = nil
}

// reclaimAbandoned is the abort-and-retry path for crashed sweep workers:
// the service thread re-sweeps each abandoned remainder itself (its own
// visits cannot crash) after a simulated-time backoff, then spawns a
// replacement worker for the casualty.
func (s *Service) reclaimAbandoned(th *kernel.Thread, rec *EpochRecord, newGen uint8) {
	for len(s.abandoned) > 0 {
		rest := s.abandoned[0]
		s.abandoned = s.abandoned[1:]
		rec.SlicesReclaimed++
		s.recov.SlicesReclaimed++
		s.traceRecovery(th, RecoverySliceReclaim, uint64(len(rest)))
		th.Idle(recoveryBackoffCycles)
		s.sweepSlice(th, rest, rec, newGen, s.cfg.Workers+s.respawned, false)
		s.workLeft--
		if s.workLeft == 0 {
			s.workDone.Broadcast(th.Sim)
		}
		s.respawnWorker(th, rec)
	}
}

// respawnWorker starts a replacement background sweep worker after a
// crash. The replacement joins the current epoch's pool immediately and
// serves later epochs like an original worker.
func (s *Service) respawnWorker(th *kernel.Thread, rec *EpochRecord) {
	s.respawned++
	idx := s.cfg.Workers - 1 + s.respawned
	rec.WorkersRespawned++
	s.recov.WorkersRespawned++
	s.traceRecovery(th, RecoveryWorkerRespawn, uint64(idx))
	s.P.Spawn(fmt.Sprintf("revoker-w%d", idx), s.cfg.RevokerCores, func(wth *kernel.Thread) {
		wth.Agent = bus.AgentRevoker
		s.P.M.Telem.SetBase(wth.Sim, telemetry.CompRevoker)
		s.worker(wth, idx)
	})
}

// sweepSlice sweeps one slice with the strategy's visit, bracketed by a
// per-worker trace span (arg = slice/worker index, arg2 = pages). When
// canCrash is set, the injected WorkerCrash hook is consulted before each
// page; on a hit the worker stalls, then dies, returning the unswept
// remainder for the service thread to reclaim.
func (s *Service) sweepSlice(th *kernel.Thread, slice []pageRef, rec *EpochRecord, newGen uint8, idx int, canCrash bool) (rest []pageRef, crashed bool) {
	tr := s.P.M.Trace
	tr.Begin(th.Sim.Now(), th.Sim.CoreID(), bus.AgentRevoker,
		trace.KindSweep, rec.Epoch, uint64(idx), uint64(len(slice)))
	s.P.M.Telem.Enter(th.Sim, telemetry.CompSweep)
	defer s.P.M.Telem.Exit(th.Sim)
	for j, pr := range slice {
		if canCrash && s.hooks.WorkerCrash != nil && s.hooks.WorkerCrash() {
			if s.hooks.CrashStallCycles > 0 {
				th.Idle(s.hooks.CrashStallCycles)
			}
			tr.End(th.Sim.Now(), th.Sim.CoreID(), bus.AgentRevoker,
				trace.KindSweep, rec.Epoch, uint64(idx), uint64(j))
			return slice[j:], true
		}
		if s.cfg.Strategy == Reloaded {
			s.visitReloaded(th, pr, rec, newGen)
		} else {
			v, r := th.SweepPage(pr.vpn, pr.pte)
			rec.PagesVisited++
			rec.CapsVisited += uint64(v)
			rec.CapsRevoked += uint64(r)
		}
	}
	tr.End(th.Sim.Now(), th.Sim.CoreID(), bus.AgentRevoker,
		trace.KindSweep, rec.Epoch, uint64(idx), uint64(len(slice)))
	return nil, false
}

// drainSlices claims and sweeps unclaimed slices until none remain. The
// claim (read + increment, no intervening virtual-time yield) is atomic
// under the simulator's one-thread-at-a-time execution, so each slice is
// swept exactly once and workLeft is decremented exactly once per slice.
// A crashed slice is NOT decremented here: its remainder moves to
// abandoned (workDone wakes the service thread, whose reclaim decrements
// after the re-sweep) and drainSlices reports the crash to its caller.
func (s *Service) drainSlices(th *kernel.Thread, rec *EpochRecord, newGen uint8, canCrash bool) bool {
	for s.workNext < len(s.workSlices) {
		i := s.workNext
		s.workNext++
		rest, crashed := s.sweepSlice(th, s.workSlices[i], rec, newGen, i, canCrash)
		if crashed {
			s.abandoned = append(s.abandoned, rest)
			s.workDone.Broadcast(th.Sim)
			return true
		}
		s.workLeft--
		if s.workLeft == 0 {
			s.workDone.Broadcast(th.Sim)
		}
	}
	return false
}

// worker is the §7.1 background sweep worker loop. In-flight work is
// drained before shutdown is honored: a Shutdown racing an epoch must not
// strand unclaimed slices, or the service thread would wait on workDone
// forever. An injected crash exits the loop for good; the service thread
// reclaims the abandoned slice and respawns a replacement.
func (s *Service) worker(th *kernel.Thread, idx int) {
	seen := 0
	for {
		th.WaitOn(s.workEv, func() bool {
			return s.shutdown || s.workSeq > seen
		})
		if s.workSeq > seen {
			seen = s.workSeq
			if s.drainSlices(th, s.cur, s.workGen, true) {
				return
			}
			continue
		}
		if s.shutdown {
			return
		}
	}
}
