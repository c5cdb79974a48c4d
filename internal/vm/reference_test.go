package vm

import (
	"fmt"
	"sort"

	"repro/internal/ca"
	"repro/internal/tmem"
)

// mapAddressSpace is the reference for AddressSpace: the implementation the
// leaf directory and the stamped in-leaf TLBs replaced. Its page table is a
// map keyed by vpn, mirrored by sorted vpn and PTE slices for ordered walks,
// and each core's TLB is a map of PTE snapshots that a shootdown replaces
// with an empty one. It is the other side of
// TestAddressSpaceMatchesMapReference and FuzzAddressSpace.
type mapAddressSpace struct {
	phys  *tmem.Phys
	pages map[uint64]*PTE // keyed by vpn
	vpns  []uint64        // sorted; mirrors pages for deterministic sweeps
	ptes  []*PTE          // parallel to vpns
	resv  []*Reservation
	next  uint64

	coreGen []uint8
	tlbs    []map[uint64]PTE

	ShootdownFilter func(core int) bool
	incomplete      bool

	stats Stats
}

func newMapAddressSpace(phys *tmem.Phys, ncores int) *mapAddressSpace {
	as := &mapAddressSpace{
		phys:    phys,
		pages:   make(map[uint64]*PTE),
		next:    HeapBase,
		coreGen: make([]uint8, ncores),
		tlbs:    make([]map[uint64]PTE, ncores),
	}
	for i := range as.tlbs {
		as.tlbs[i] = make(map[uint64]PTE)
	}
	return as
}

func (as *mapAddressSpace) Stats() Stats { return as.stats }

func (as *mapAddressSpace) Reserve(length uint64, perms ca.Perms) (*Reservation, error) {
	if length == 0 {
		return nil, fmt.Errorf("vm: zero-length reservation")
	}
	padded := ca.RepresentableLength((length + PageSize - 1) &^ (PageSize - 1))
	align := ca.RepresentableAlign(padded)
	if align < PageSize {
		align = PageSize
	}
	base := (as.next + align - 1) &^ (align - 1)
	as.next = base + padded + PageSize
	r := &Reservation{Base: base, Length: padded, Root: ca.NewRoot(base, padded, perms)}
	as.resv = append(as.resv, r)
	return r, nil
}

func (as *mapAddressSpace) insertVPN(vpn uint64, pte *PTE) {
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

func (as *mapAddressSpace) removeVPN(vpn uint64) {
	i := sort.Search(len(as.vpns), func(i int) bool { return as.vpns[i] >= vpn })
	if i < len(as.vpns) && as.vpns[i] == vpn {
		as.vpns = append(as.vpns[:i], as.vpns[i+1:]...)
		as.ptes = append(as.ptes[:i], as.ptes[i+1:]...)
	}
}

func (as *mapAddressSpace) reservationOf(va uint64) *Reservation {
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

func (as *mapAddressSpace) EnsureMapped(va uint64) (*PTE, bool, error) {
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
	pte := &PTE{Frame: frame, Bits: bits, Gen: as.coreGen[0]}
	as.pages[vpn] = pte
	as.insertVPN(vpn, pte)
	as.stats.SoftFaults++
	as.stats.MappedPages++
	if as.stats.MappedPages > as.stats.PeakMappedPages {
		as.stats.PeakMappedPages = as.stats.MappedPages
	}
	return pte, true, nil
}

func (as *mapAddressSpace) Lookup(va uint64) (*PTE, bool) {
	pte, ok := as.pages[va>>PageShift]
	if !ok || pte.Bits&PTEGuard != 0 {
		return nil, false
	}
	return pte, true
}

func (as *mapAddressSpace) UnmapRange(va, length uint64) (*Reservation, bool, error) {
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
	allGone := true
	for vpn := r.Base >> PageShift; vpn < (r.Base+r.Length)>>PageShift; vpn++ {
		pte, ok := as.pages[vpn]
		if !ok || pte.Bits&PTEGuard == 0 {
			allGone = false
			break
		}
	}
	if allGone {
		r.Dead = true
	}
	return r, allGone, nil
}

func (as *mapAddressSpace) ReleaseReservation(r *Reservation) {
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

func (as *mapAddressSpace) Reservations() []*Reservation { return as.resv }

func (as *mapAddressSpace) ForEachMappedPage(fn func(vpn uint64, pte *PTE) bool) {
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

func (as *mapAddressSpace) CoreGen(core int) uint8 { return as.coreGen[core] }

func (as *mapAddressSpace) BumpCoreGen(core int) { as.coreGen[core] ^= 1 }

func (as *mapAddressSpace) TLBLookup(core int, va uint64) (PTE, bool) {
	e, ok := as.tlbs[core][va>>PageShift]
	return e, ok
}

func (as *mapAddressSpace) TLBFill(core int, va uint64, pte *PTE) {
	as.tlbs[core][va>>PageShift] = *pte
}

func (as *mapAddressSpace) TLBInvalidate(core int, va uint64) {
	delete(as.tlbs[core], va>>PageShift)
}

func (as *mapAddressSpace) ShootdownAll() {
	dropped := false
	for i := range as.tlbs {
		if as.ShootdownFilter != nil && as.ShootdownFilter(i) {
			dropped = true
			continue
		}
		as.tlbs[i] = make(map[uint64]PTE)
	}
	as.incomplete = dropped
	as.stats.Shootdowns++
}

func (as *mapAddressSpace) ShootdownIncomplete() bool { return as.incomplete }

func (as *mapAddressSpace) Clone() (*mapAddressSpace, error) {
	c := newMapAddressSpace(as.phys, len(as.coreGen))
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
