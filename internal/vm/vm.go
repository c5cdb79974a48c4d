// Package vm models per-process virtual memory: reservations, page tables,
// per-core TLBs, and the two PTE mechanisms this paper's revokers are built
// on — per-PTE capability load generations (§4.1) and hardware-assisted
// capability-dirty tracking (§4.2).
//
// The package is purely functional state: it performs translations and
// raises faults but charges no cycles. The kernel layer charges costs for
// TLB misses, PTE updates and fault handling.
package vm

import (
	"fmt"
	"sort"

	"repro/internal/ca"
	"repro/internal/tmem"
)

// PageSize is the virtual page size.
const PageSize = tmem.PageSize

// PageShift is log2(PageSize).
const PageShift = 12

// PTEBits is the flag set of a page table entry.
type PTEBits uint16

const (
	// PTEValid marks a present mapping.
	PTEValid PTEBits = 1 << iota
	// PTERead permits user loads.
	PTERead
	// PTEWrite permits user stores.
	PTEWrite
	// PTECapWrite permits tagged capability stores (cleared on mappings,
	// such as shared file pages, that must not carry capabilities).
	PTECapWrite
	// PTECapDirty is set by hardware on every tagged capability store; the
	// revoker clears it when it scans the page. This is Cornucopia's store
	// barrier (§4.2).
	PTECapDirty
	// PTEEverCapDirty is the software summary "this page must be visited
	// by revocation": sticky once a capability store occurs. Our
	// re-implementation of Cornucopia never clears it (§4.5); Reloaded may
	// clear it when a sweep finds the page holds no capabilities.
	PTEEverCapDirty
	// PTEGuard marks a guard page backing unmapped holes in a reservation
	// (§6.2); all access faults.
	PTEGuard
	// PTECapLoadTrap is the §7.6 proposal: a disposition under which any
	// tagged capability load traps regardless of generation. The revoker
	// sets it on capability-clean pages instead of maintaining their
	// generation bits every epoch; the trap is resolved by installing a
	// PTE with the current generation.
	PTECapLoadTrap
	// PTECOW marks a page whose frame is shared copy-on-write with another
	// address space (fork, §4.3): the first write resolves it to a private
	// copy. Aliased frames are exactly the case the paper's implementation
	// mishandled (footnote 20); here every mutation — including a
	// revocation write — must break the sharing first.
	PTECOW
)

// FaultKind classifies memory faults.
type FaultKind int

// Fault kinds raised by translation.
const (
	// FaultUnmapped is an access to an unmapped or guard page.
	FaultUnmapped FaultKind = iota
	// FaultPerm is a permission violation at the PTE level.
	FaultPerm
	// FaultCapLoadGen is the per-page capability load barrier trap: a
	// tagged load from a page whose generation differs from the core's.
	FaultCapLoadGen
	// FaultCapStore is a tagged store to a page without PTECapWrite.
	FaultCapStore
)

func (k FaultKind) String() string {
	switch k {
	case FaultUnmapped:
		return "unmapped"
	case FaultPerm:
		return "perm"
	case FaultCapLoadGen:
		return "cap-load-gen"
	case FaultCapStore:
		return "cap-store"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Fault describes a memory access fault.
type Fault struct {
	Kind FaultKind
	VA   uint64
}

func (f *Fault) Error() string {
	return fmt.Sprintf("vm: %s fault at 0x%x", f.Kind, f.VA)
}

// PTE is a page table entry.
type PTE struct {
	Frame tmem.FrameID
	Bits  PTEBits
	// Gen is the page's capability load generation bit. A tagged capability
	// load traps unless Gen equals the loading core's generation (§4.1).
	Gen uint8
}

// tlbEntry caches a PTE snapshot, including its generation bit.
type tlbEntry struct {
	pte   PTE
	valid bool
}

// Reservation is a kernel mmap reservation (§6.2): a naturally-padded span
// of address space that is never partially reused. Unmapping part of it
// leaves guard pages; only once the whole reservation is unmapped (and, with
// revocation enabled, swept) can the span be recycled.
type Reservation struct {
	Base   uint64
	Length uint64
	// Root is the capability returned by mmap, spanning the reservation.
	Root ca.Capability
	// Dead is set once the reservation has been fully unmapped.
	Dead bool
	// NoCaps marks a mapping prohibited from carrying tagged capabilities
	// (shared file mappings; footnote 13).
	NoCaps bool
}

// Stats tracks address-space accounting.
type Stats struct {
	// MappedPages is the number of resident pages (RSS, in pages).
	MappedPages int
	// PeakMappedPages is the RSS high-water mark.
	PeakMappedPages int
	// SoftFaults counts demand-zero page materializations.
	SoftFaults uint64
	// Shootdowns counts TLB shootdown operations.
	Shootdowns uint64
}

// AddressSpace is one process's virtual memory map.
type AddressSpace struct {
	phys  *tmem.Phys
	pages map[uint64]*PTE // keyed by vpn
	vpns  []uint64        // sorted; mirrors pages for deterministic sweeps
	ptes  []*PTE          // parallel to vpns, so page walks skip the map
	resv  []*Reservation
	next  uint64 // bump pointer for reservations

	// coreGen is the per-core in-core "capability load generation" control
	// register value for this address space (§4.1).
	coreGen []uint8
	tlbs    []map[uint64]tlbEntry

	// OnShootdown, when non-nil, is invoked once per ShootdownAll — vm has
	// no clock of its own, so the kernel layer hooks this to timestamp and
	// trace shootdowns.
	OnShootdown func()

	// ShootdownFilter, when non-nil, is consulted once per core on every
	// ShootdownAll; returning true drops that core's invalidation IPI, so
	// its TLB keeps (possibly stale) entries. Fault injection only
	// (internal/fault).
	ShootdownFilter func(core int) bool
	// incomplete records whether the most recent ShootdownAll dropped any
	// core's IPI.
	incomplete bool

	stats Stats
}

// HeapBase is where reservations begin. The low 4 GiB is left unused so
// that stray small integers never alias heap addresses.
const HeapBase = 0x1_0000_0000

// NewAddressSpace creates an address space over phys for a machine with
// ncores cores.
func NewAddressSpace(phys *tmem.Phys, ncores int) *AddressSpace {
	as := &AddressSpace{
		phys:    phys,
		pages:   make(map[uint64]*PTE),
		next:    HeapBase,
		coreGen: make([]uint8, ncores),
		tlbs:    make([]map[uint64]tlbEntry, ncores),
	}
	for i := range as.tlbs {
		as.tlbs[i] = make(map[uint64]tlbEntry)
	}
	return as
}

// Phys returns the backing physical memory.
func (as *AddressSpace) Phys() *tmem.Phys { return as.phys }

// Stats returns a snapshot of accounting counters.
func (as *AddressSpace) Stats() Stats { return as.stats }

// Reserve creates a reservation of at least length bytes, padded to whole
// pages and to CHERI-representable bounds, separated from its neighbours by
// a guard page. It returns the reservation carrying the root capability a
// CheriABI mmap would return.
func (as *AddressSpace) Reserve(length uint64, perms ca.Perms) (*Reservation, error) {
	if length == 0 {
		return nil, fmt.Errorf("vm: zero-length reservation")
	}
	padded := ca.RepresentableLength((length + PageSize - 1) &^ (PageSize - 1))
	align := ca.RepresentableAlign(padded)
	if align < PageSize {
		align = PageSize
	}
	base := (as.next + align - 1) &^ (align - 1)
	as.next = base + padded + PageSize // guard page between reservations
	r := &Reservation{
		Base:   base,
		Length: padded,
		Root:   ca.NewRoot(base, padded, perms),
	}
	as.resv = append(as.resv, r)
	return r, nil
}

// insertVPN keeps the sorted vpn list (and its parallel PTE slice) in
// sync with the page map. A vpn above the current maximum appends in O(1)
// — the overwhelmingly common case, since reservations are carved from a
// monotone bump pointer — so sequential heap growth costs O(pages), not
// O(pages²); any other vpn takes the copy-shift sorted insert.
func (as *AddressSpace) insertVPN(vpn uint64, pte *PTE) {
	if n := len(as.vpns); n == 0 || as.vpns[n-1] < vpn {
		as.vpns = append(as.vpns, vpn)
		as.ptes = append(as.ptes, pte)
		return
	}
	i := sort.Search(len(as.vpns), func(i int) bool { return as.vpns[i] >= vpn })
	as.vpns = append(as.vpns, 0)
	copy(as.vpns[i+1:], as.vpns[i:])
	as.vpns[i] = vpn
	as.ptes = append(as.ptes, nil)
	copy(as.ptes[i+1:], as.ptes[i:])
	as.ptes[i] = pte
}

func (as *AddressSpace) removeVPN(vpn uint64) {
	i := sort.Search(len(as.vpns), func(i int) bool { return as.vpns[i] >= vpn })
	if i < len(as.vpns) && as.vpns[i] == vpn {
		as.vpns = append(as.vpns[:i], as.vpns[i+1:]...)
		as.ptes = append(as.ptes[:i], as.ptes[i+1:]...)
	}
}

// reservationOf returns the reservation containing va, or nil. The list is
// sorted by base (reservations are carved from a monotone bump pointer), so
// this is a binary search.
func (as *AddressSpace) reservationOf(va uint64) *Reservation {
	i := sort.Search(len(as.resv), func(i int) bool { return as.resv[i].Base > va })
	if i == 0 {
		return nil
	}
	r := as.resv[i-1]
	if va < r.Base+r.Length {
		return r
	}
	return nil
}

// EnsureMapped materializes the page containing va on demand (demand-zero),
// if va lies within a live reservation. It reports whether a soft fault
// (new frame) occurred.
func (as *AddressSpace) EnsureMapped(va uint64) (*PTE, bool, error) {
	vpn := va >> PageShift
	if pte, ok := as.pages[vpn]; ok {
		if pte.Bits&PTEGuard != 0 {
			return nil, false, &Fault{Kind: FaultUnmapped, VA: va}
		}
		return pte, false, nil
	}
	r := as.reservationOf(va)
	if r == nil || r.Dead {
		return nil, false, &Fault{Kind: FaultUnmapped, VA: va}
	}
	frame, err := as.phys.AllocFrame()
	if err != nil {
		return nil, false, err
	}
	bits := PTEValid | PTERead | PTEWrite | PTECapWrite
	if r.NoCaps {
		bits &^= PTECapWrite
	}
	pte := &PTE{
		Frame: frame,
		Bits:  bits,
		// New pages adopt the current generation of core 0's view; all
		// cores agree outside of revocation, and during revocation the
		// revoker owns generation maintenance for fresh pages.
		Gen: as.coreGen[0],
	}
	as.pages[vpn] = pte
	as.insertVPN(vpn, pte)
	as.stats.SoftFaults++
	as.stats.MappedPages++
	if as.stats.MappedPages > as.stats.PeakMappedPages {
		as.stats.PeakMappedPages = as.stats.MappedPages
	}
	return pte, true, nil
}

// Lookup returns the PTE for va without materializing anything.
func (as *AddressSpace) Lookup(va uint64) (*PTE, bool) {
	pte, ok := as.pages[va>>PageShift]
	if !ok || pte.Bits&PTEGuard != 0 {
		return nil, false
	}
	return pte, true
}

// UnmapRange unmaps [va, va+length) within a reservation, freeing frames
// and leaving guard entries so the span cannot be re-filled (§6.2). If the
// entire reservation ends up unmapped it is marked Dead and true is
// returned; the caller (the kernel) is then responsible for quarantining
// the reservation until a revocation pass completes.
func (as *AddressSpace) UnmapRange(va, length uint64) (*Reservation, bool, error) {
	r := as.reservationOf(va)
	if r == nil {
		return nil, false, &Fault{Kind: FaultUnmapped, VA: va}
	}
	if va+length > r.Base+r.Length {
		return nil, false, fmt.Errorf("vm: unmap range escapes reservation")
	}
	start := va >> PageShift
	end := (va + length + PageSize - 1) >> PageShift
	for vpn := start; vpn < end; vpn++ {
		if pte, ok := as.pages[vpn]; ok {
			if pte.Bits&PTEGuard == 0 {
				as.phys.FreeFrame(pte.Frame)
				as.stats.MappedPages--
			}
			pte.Bits = PTEGuard
			pte.Frame = tmem.NoFrame
		} else {
			g := &PTE{Frame: tmem.NoFrame, Bits: PTEGuard}
			as.pages[vpn] = g
			as.insertVPN(vpn, g)
		}
	}
	as.ShootdownAll()
	// Dead if every page of the reservation is a guard (or never touched
	// but covered by explicit guards).
	allGone := true
	for vpn := r.Base >> PageShift; vpn < (r.Base+r.Length)>>PageShift; vpn++ {
		pte, ok := as.pages[vpn]
		if ok && pte.Bits&PTEGuard == 0 {
			allGone = false
			break
		}
		if !ok {
			allGone = false // untouched pages are still mappable
			break
		}
	}
	if allGone {
		r.Dead = true
	}
	return r, allGone, nil
}

// MarkNoCaps registers the reservation as capability-prohibited: pages
// materialized within it never get PTECapWrite (shared file mappings,
// footnote 13 of the paper).
func (as *AddressSpace) MarkNoCaps(r *Reservation) {
	r.NoCaps = true
}

// ReleaseReservation recycles a Dead reservation's guard entries. Only safe
// after revocation has swept stale capabilities to it.
func (as *AddressSpace) ReleaseReservation(r *Reservation) {
	if !r.Dead {
		panic("vm: releasing live reservation")
	}
	for vpn := r.Base >> PageShift; vpn < (r.Base+r.Length)>>PageShift; vpn++ {
		if _, ok := as.pages[vpn]; ok {
			delete(as.pages, vpn)
			as.removeVPN(vpn)
		}
	}
	for i, rr := range as.resv {
		if rr == r {
			as.resv = append(as.resv[:i], as.resv[i+1:]...)
			break
		}
	}
}

// Reservations returns the live reservations in creation order.
func (as *AddressSpace) Reservations() []*Reservation { return as.resv }

// ForEachMappedPage visits every resident page in ascending VA order. fn
// may mutate the PTE; it must not map or unmap pages.
func (as *AddressSpace) ForEachMappedPage(fn func(vpn uint64, pte *PTE) bool) {
	for i, vpn := range as.vpns {
		pte := as.ptes[i]
		if pte.Bits&PTEGuard != 0 {
			continue
		}
		if !fn(vpn, pte) {
			return
		}
	}
}

// MappedPageCount returns the number of resident pages.
func (as *AddressSpace) MappedPageCount() int { return as.stats.MappedPages }

// --- capability load generations (§4.1) ---------------------------------

// CoreGen returns the in-core capability load generation for core.
func (as *AddressSpace) CoreGen(core int) uint8 { return as.coreGen[core] }

// BumpCoreGen toggles core's in-core generation bit. Called with the world
// stopped at the start of a Reloaded epoch; any core later entering this
// address space adopts the new value (we model that by bumping all cores).
func (as *AddressSpace) BumpCoreGen(core int) { as.coreGen[core] ^= 1 }

// GenMismatch reports whether a tagged capability load by core from the
// page would trap (PTE generation differs from the in-core generation).
func (as *AddressSpace) GenMismatch(core int, pte *PTE) bool {
	return pte.Gen != as.coreGen[core]
}

// --- TLBs ----------------------------------------------------------------

// TLBLookup consults core's TLB for va's page, returning the cached PTE
// snapshot.
func (as *AddressSpace) TLBLookup(core int, va uint64) (PTE, bool) {
	e, ok := as.tlbs[core][va>>PageShift]
	if !ok || !e.valid {
		return PTE{}, false
	}
	return e.pte, true
}

// TLBFill caches the current PTE (including its generation) in core's TLB.
func (as *AddressSpace) TLBFill(core int, va uint64, pte *PTE) {
	as.tlbs[core][va>>PageShift] = tlbEntry{pte: *pte, valid: true}
}

// TLBInvalidate removes va's page from core's TLB.
func (as *AddressSpace) TLBInvalidate(core int, va uint64) {
	delete(as.tlbs[core], va>>PageShift)
}

// ShootdownAll flushes every core's TLB for this address space (an IPI
// broadcast in hardware). The cycle cost is charged by the kernel layer.
func (as *AddressSpace) ShootdownAll() {
	dropped := false
	for i := range as.tlbs {
		if as.ShootdownFilter != nil && as.ShootdownFilter(i) {
			dropped = true
			continue
		}
		as.tlbs[i] = make(map[uint64]tlbEntry)
	}
	as.incomplete = dropped
	as.stats.Shootdowns++
	if as.OnShootdown != nil {
		as.OnShootdown()
	}
}

// ShootdownIncomplete reports whether the most recent ShootdownAll left
// any core's TLB stale (a dropped IPI). The revoker verifies this after
// arming the load barrier and re-issues the broadcast (abort-and-retry).
func (as *AddressSpace) ShootdownIncomplete() bool { return as.incomplete }

// CloneCOW clones the address space for fork with copy-on-write sharing:
// resident pages share their frames (reference counted); both sides'
// PTEs are marked PTECOW so the first write by either resolves to a
// private copy. Dirty-summary bits are inherited, so the child's revoker
// never skips a page whose shared frame carries capabilities.
func (as *AddressSpace) CloneCOW() *AddressSpace {
	c := NewAddressSpace(as.phys, len(as.coreGen))
	c.next = as.next
	copy(c.coreGen, as.coreGen)
	for _, r := range as.resv {
		nr := *r
		c.resv = append(c.resv, &nr)
	}
	for i, vpn := range as.vpns {
		pte := as.ptes[i]
		np := &PTE{Frame: pte.Frame, Bits: pte.Bits, Gen: as.coreGen[0]}
		np.Bits &^= PTECapLoadTrap
		if pte.Bits&PTEGuard == 0 {
			as.phys.Ref(pte.Frame)
			pte.Bits |= PTECOW
			np.Bits |= PTECOW
			c.stats.MappedPages++
		}
		c.pages[vpn] = np
		c.vpns = append(c.vpns, vpn)
		c.ptes = append(c.ptes, np)
	}
	as.ShootdownAll() // parents' cached writable translations are stale
	c.stats.PeakMappedPages = c.stats.MappedPages
	return c
}

// ResolveCOW gives the page a private frame: if the frame is still shared,
// its contents (tags, capabilities, colors) are copied into a fresh frame
// and the sharing reference dropped. Idempotent; reports whether a copy
// happened.
func (as *AddressSpace) ResolveCOW(pte *PTE) (bool, error) {
	if pte.Bits&PTECOW == 0 {
		return false, nil
	}
	if !as.phys.Shared(pte.Frame) {
		// Last sharer: the frame is already effectively private.
		pte.Bits &^= PTECOW
		return false, nil
	}
	nf, err := as.phys.AllocFrame()
	if err != nil {
		return false, err
	}
	as.phys.CopyFrame(nf, pte.Frame)
	as.phys.FreeFrame(pte.Frame) // drops our shared reference
	pte.Frame = nf
	pte.Bits &^= PTECOW
	return true, nil
}

// Clone eagerly copies the address space for fork: same reservations and
// virtual layout, fresh frames holding copies of every resident page's
// tags, capabilities and colors. Guard entries are preserved. The clone's
// in-core generations start from the parent's current values and all PTEs
// are stamped with them, so the child begins at a steady state (no stale
// generations; the paper's implementation must instead propagate pending
// load traps into the child, footnote 21).
func (as *AddressSpace) Clone() (*AddressSpace, error) {
	c := NewAddressSpace(as.phys, len(as.coreGen))
	c.next = as.next
	copy(c.coreGen, as.coreGen)
	for _, r := range as.resv {
		nr := *r
		c.resv = append(c.resv, &nr)
	}
	for i, vpn := range as.vpns {
		pte := as.ptes[i]
		np := &PTE{Frame: tmem.NoFrame, Bits: pte.Bits, Gen: as.coreGen[0]}
		if pte.Bits&PTEGuard == 0 {
			f, err := as.phys.AllocFrame()
			if err != nil {
				return nil, err
			}
			as.phys.CopyFrame(f, pte.Frame)
			np.Frame = f
			c.stats.MappedPages++
		}
		np.Bits &^= PTECapLoadTrap
		c.pages[vpn] = np
		c.vpns = append(c.vpns, vpn)
		c.ptes = append(c.ptes, np)
	}
	c.stats.PeakMappedPages = c.stats.MappedPages
	return c, nil
}

// GranuleOf converts a VA to its (vpn, granule index) coordinates.
func GranuleOf(va uint64) (vpn uint64, g int) {
	return va >> PageShift, int(va%PageSize) / ca.GranuleSize
}

// TagWordSpan is the address-space span covered by one 64-bit tag word: 64
// capability granules, i.e. 1 KiB. Tag words and shadow-bitmap words tile
// the address space at this alignment, which is what lets a word-wise
// sweep intersect them directly.
const TagWordSpan = 64 * ca.GranuleSize

// TagWordVA returns the VA of the first granule covered by tag word w of
// page vpn — the inverse of GranuleWordOf for a word's base.
func TagWordVA(vpn uint64, w int) uint64 {
	return vpn<<PageShift + uint64(w)*TagWordSpan
}

// GranuleWordOf converts a VA to its (vpn, tag word, bit) coordinates: the
// page, the 64-bit tag word within the page's tag bitmap, and the
// granule's bit within that word.
func GranuleWordOf(va uint64) (vpn uint64, w int, bit uint) {
	vpn, g := GranuleOf(va)
	return vpn, g >> 6, uint(g) & 63
}
