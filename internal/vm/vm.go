// Package vm models per-process virtual memory: reservations, page tables,
// per-core TLBs, and the two PTE mechanisms this paper's revokers are built
// on — per-PTE capability load generations (§4.1) and hardware-assisted
// capability-dirty tracking (§4.2).
//
// The package is purely functional state: it performs translations and
// raises faults but charges no cycles. The kernel layer charges costs for
// TLB misses, PTE updates and fault handling.
//
// The page table is a directory of small leaves indexed by vpn, and every
// core's TLB entry for a page sits in the page's leaf beside its PTE, so a
// translation is a few array loads, never a map lookup. The TLB has no
// capacity: an entry leaves only by TLBInvalidate, or by a ShootdownAll
// whose IPI reached its core.
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
	// Gen is the page's capability load generation bit, 0 or 1. A tagged
	// capability load traps unless Gen equals the loading core's generation
	// (§4.1).
	Gen uint8
}

const (
	// leafShift is log2 of the number of pages one page-table leaf maps.
	leafShift = 4
	// leafPages is the number of pages one leaf maps: 64 KiB of address
	// space. Leaves this small keep sparse reservations cheap (a
	// reservation with two resident pages far apart costs two leaves).
	leafPages = 1 << leafShift
	// heapBaseVPN is the vpn of HeapBase, which leaf 0 starts at.
	heapBaseVPN = HeapBase >> PageShift
	// stampLimit bounds the 31-bit TLB stamps: a core whose stamp reaches
	// it has its entries cleared and restarts at 1.
	stampLimit = 1 << 31
)

// leaf is one page-table leaf: the PTEs of leafPages consecutive pages and
// every core's TLB entry for each of them. PTEs live in place and a leaf
// never moves, so a *PTE stays valid for as long as it is held. A slot
// whose Bits are zero is absent; every present PTE has PTEValid or
// PTEGuard set.
type leaf struct {
	ptes [leafPages]PTE
	// tlb holds core c's TLB entry for page i at tlb[c<<leafShift|i]: the
	// cached generation in bit 0 and a shootdown stamp above it. The entry
	// is valid while its stamp equals the core's current stamp; zero is
	// never valid.
	tlb []uint32
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
	phys *tmem.Phys
	// dir is the page table: dir[li] maps the leafPages pages from vpn
	// heapBaseVPN + li<<leafShift. A leaf is allocated where a page is
	// first mapped or guarded, and dropped when a released reservation
	// leaves it with no present PTE and no valid TLB entry. Reservations
	// come from a bump pointer that only grows, so a released page is
	// never mapped again.
	dir  []*leaf
	resv []*Reservation
	next uint64 // bump pointer for reservations

	// coreGen is the per-core in-core "capability load generation" control
	// register value for this address space (§4.1).
	coreGen []uint8
	// stamp is each core's TLB stamp, 1 to stampLimit-1. A shootdown that
	// reaches a core bumps its stamp, which invalidates every entry the
	// core holds without touching any of them.
	stamp []uint32

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
		next:    HeapBase,
		coreGen: make([]uint8, ncores),
		stamp:   make([]uint32, ncores),
	}
	for i := range as.stamp {
		as.stamp[i] = 1
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

// leafOf returns the leaf mapping vpn, or nil. A vpn below HeapBase wraps
// past the directory's end and misses.
func (as *AddressSpace) leafOf(vpn uint64) *leaf {
	li := (vpn - heapBaseVPN) >> leafShift
	if li >= uint64(len(as.dir)) {
		return nil
	}
	return as.dir[li]
}

// slot returns vpn's PTE slot, allocating its leaf (and growing the
// directory) if needed. vpn must lie in a reservation.
func (as *AddressSpace) slot(vpn uint64) *PTE {
	li := (vpn - heapBaseVPN) >> leafShift
	if n := uint64(len(as.dir)); li >= n {
		as.dir = append(as.dir, make([]*leaf, li+1-n)...)
	}
	l := as.dir[li]
	if l == nil {
		l = &leaf{tlb: make([]uint32, len(as.stamp)<<leafShift)}
		as.dir[li] = l
	}
	return &l.ptes[vpn&(leafPages-1)]
}

// idle reports whether leaf l holds no present PTE and no valid TLB entry
// of any core, so that dropping it changes no translation and no TLB
// answer.
func (as *AddressSpace) idle(l *leaf) bool {
	for i := range l.ptes {
		if l.ptes[i].Bits != 0 {
			return false
		}
	}
	for c, s := range as.stamp {
		for _, v := range l.tlb[c<<leafShift : (c+1)<<leafShift] {
			if v>>1 == s {
				return false
			}
		}
	}
	return true
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
	if l := as.leafOf(vpn); l != nil {
		if pte := &l.ptes[vpn&(leafPages-1)]; pte.Bits != 0 {
			if pte.Bits&PTEGuard != 0 {
				return nil, false, &Fault{Kind: FaultUnmapped, VA: va}
			}
			return pte, false, nil
		}
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
	pte := as.slot(vpn)
	*pte = PTE{
		Frame: frame,
		Bits:  bits,
		// New pages adopt the current generation of core 0's view; all
		// cores agree outside of revocation, and during revocation the
		// revoker owns generation maintenance for fresh pages.
		Gen: as.coreGen[0],
	}
	as.stats.SoftFaults++
	as.stats.MappedPages++
	if as.stats.MappedPages > as.stats.PeakMappedPages {
		as.stats.PeakMappedPages = as.stats.MappedPages
	}
	return pte, true, nil
}

// Lookup returns the PTE for va without materializing anything.
func (as *AddressSpace) Lookup(va uint64) (*PTE, bool) {
	vpn := va >> PageShift
	l := as.leafOf(vpn)
	if l == nil {
		return nil, false
	}
	pte := &l.ptes[vpn&(leafPages-1)]
	if pte.Bits == 0 || pte.Bits&PTEGuard != 0 {
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
		pte := as.slot(vpn)
		if pte.Bits != 0 && pte.Bits&PTEGuard == 0 {
			as.phys.FreeFrame(pte.Frame)
			as.stats.MappedPages--
		}
		pte.Bits = PTEGuard
		pte.Frame = tmem.NoFrame
	}
	as.ShootdownAll()
	// Dead if every page of the reservation is a guard (untouched pages
	// are still mappable).
	allGone := true
	for vpn := r.Base >> PageShift; vpn < (r.Base+r.Length)>>PageShift; vpn++ {
		l := as.leafOf(vpn)
		if l == nil || l.ptes[vpn&(leafPages-1)].Bits&PTEGuard == 0 {
			allGone = false
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
// after revocation has swept stale capabilities to it. A leaf left with no
// present PTE is dropped unless some core still holds a valid TLB entry in
// it: a core whose shootdown IPI was dropped keeps its stale translations,
// released pages included, until its next shootdown.
func (as *AddressSpace) ReleaseReservation(r *Reservation) {
	if !r.Dead {
		panic("vm: releasing live reservation")
	}
	first, end := r.Base>>PageShift, (r.Base+r.Length)>>PageShift
	for vpn := first; vpn < end; vpn++ {
		if l := as.leafOf(vpn); l != nil {
			l.ptes[vpn&(leafPages-1)].Bits = 0
		}
	}
	for li := (first - heapBaseVPN) >> leafShift; li <= (end-1-heapBaseVPN)>>leafShift; li++ {
		if l := as.dir[li]; l != nil && as.idle(l) {
			as.dir[li] = nil
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

// ForEachMappedPage visits every resident page in ascending VA order,
// skipping guards. fn may mutate the PTE; it must not map or unmap pages,
// and it must not yield virtual time (no caller's callback does: each only
// reads PTE bits or collects the pages it will sweep afterwards).
func (as *AddressSpace) ForEachMappedPage(fn func(vpn uint64, pte *PTE) bool) {
	as.walk(func(vpn uint64, pte *PTE) bool {
		return pte.Bits&PTEGuard != 0 || fn(vpn, pte)
	})
}

// walk visits every present PTE, guards included, in ascending vpn order
// until fn returns false. fork's clones copy the page table with it, so
// they allocate and reference frames in vpn order.
func (as *AddressSpace) walk(fn func(vpn uint64, pte *PTE) bool) {
	for li, l := range as.dir {
		if l == nil {
			continue
		}
		for i := range l.ptes {
			if pte := &l.ptes[i]; pte.Bits != 0 && !fn(heapBaseVPN+uint64(li)<<leafShift+uint64(i), pte) {
				return
			}
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

// TLBLookup consults core's TLB for va's page, returning the generation it
// cached when it was filled (the load barrier's check, §4.1, reads only
// that).
func (as *AddressSpace) TLBLookup(core int, va uint64) (gen uint8, ok bool) {
	vpn := va >> PageShift
	l := as.leafOf(vpn)
	if l == nil {
		return 0, false
	}
	v := l.tlb[core<<leafShift|int(vpn&(leafPages-1))]
	if v>>1 != as.stamp[core] {
		return 0, false
	}
	return uint8(v & 1), true
}

// TLBFill caches pte, va's translation, in core's TLB entry for va's page;
// only its generation is kept. It is only ever called on a present page (a
// guard counts: the page may have been unmapped while the caller held its
// PTE), and filling an absent one panics.
func (as *AddressSpace) TLBFill(core int, va uint64, pte *PTE) {
	vpn := va >> PageShift
	l := as.leafOf(vpn)
	if l == nil || l.ptes[vpn&(leafPages-1)].Bits == 0 {
		panic(fmt.Sprintf("vm: TLB fill of unmapped page %#x", va))
	}
	l.tlb[core<<leafShift|int(vpn&(leafPages-1))] = as.stamp[core]<<1 | uint32(pte.Gen&1)
}

// TLBInvalidate removes va's page from core's TLB.
func (as *AddressSpace) TLBInvalidate(core int, va uint64) {
	vpn := va >> PageShift
	if l := as.leafOf(vpn); l != nil {
		l.tlb[core<<leafShift|int(vpn&(leafPages-1))] = 0
	}
}

// ShootdownAll flushes every core's TLB for this address space (an IPI
// broadcast in hardware) by bumping each reached core's stamp; it
// allocates nothing. The cycle cost is charged by the kernel layer.
func (as *AddressSpace) ShootdownAll() {
	dropped := false
	for c := range as.stamp {
		if as.ShootdownFilter != nil && as.ShootdownFilter(c) {
			dropped = true
			continue
		}
		if as.stamp[c]++; as.stamp[c] == stampLimit {
			as.restartStamp(c)
		}
	}
	as.incomplete = dropped
	as.stats.Shootdowns++
	if as.OnShootdown != nil {
		as.OnShootdown()
	}
}

// restartStamp clears core c's entries in every leaf and restarts its
// stamp at 1, so that no entry filled before the wrap can carry a stamp
// the core reaches again.
func (as *AddressSpace) restartStamp(c int) {
	for _, l := range as.dir {
		if l != nil {
			clear(l.tlb[c<<leafShift : (c+1)<<leafShift])
		}
	}
	as.stamp[c] = 1
}

// ShootdownIncomplete reports whether the most recent ShootdownAll left
// any core's TLB stale (a dropped IPI). The revoker verifies this after
// arming the load barrier and re-issues the broadcast (abort-and-retry).
func (as *AddressSpace) ShootdownIncomplete() bool { return as.incomplete }

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
	var err error
	as.walk(func(vpn uint64, pte *PTE) bool {
		np := PTE{Frame: tmem.NoFrame, Bits: pte.Bits &^ PTECapLoadTrap, Gen: as.coreGen[0]}
		if pte.Bits&PTEGuard == 0 {
			var f tmem.FrameID
			if f, err = as.phys.AllocFrame(); err != nil {
				return false
			}
			as.phys.CopyFrame(f, pte.Frame)
			np.Frame = f
			c.stats.MappedPages++
		}
		*c.slot(vpn) = np
		return true
	})
	if err != nil {
		return nil, err
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
// page vpn.
func TagWordVA(vpn uint64, w int) uint64 {
	return vpn<<PageShift + uint64(w)*TagWordSpan
}
