package vm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ca"
	"repro/internal/tmem"
)

// diffCores is the core count of the differential address spaces.
const diffCores = 4

// diffFrames is each bank's size: small enough that long inputs run out of
// frames, so both sides' out-of-memory paths are compared too.
const diffFrames = 160

// asDiff drives an AddressSpace and the map reference through the same
// operations, each over a bank of its own, and reports the first
// disagreement. The banks start equal and see the same AllocFrame and
// FreeFrame sequence when the two sides agree, so frame ids must match
// exactly.
type asDiff struct {
	t    *testing.T
	as   *AddressSpace
	ref  *mapAddressSpace
	resv [][2]*Reservation // live reservations: {as's, ref's}
	drop uint8             // cores whose shootdown IPIs are dropped
	// touched lists every page address an operation named, for the
	// per-core TLB comparison.
	touched []uint64
	seen    map[uint64]bool
	// held are PTE pointers returned by earlier operations, written
	// through later as the kernel's held pageRefs are.
	held [][2]*PTE
	// op is the operation being checked, for failure messages.
	op []byte
}

func newASDiff(t *testing.T) *asDiff {
	d := &asDiff{
		t:    t,
		as:   NewAddressSpace(tmem.NewPhys(diffFrames), diffCores),
		ref:  newMapAddressSpace(tmem.NewPhys(diffFrames), diffCores),
		seen: make(map[uint64]bool),
	}
	d.setFilters()
	return d
}

func (d *asDiff) setFilters() {
	filter := func(core int) bool { return d.drop>>uint(core)&1 != 0 }
	d.as.ShootdownFilter = filter
	d.ref.ShootdownFilter = filter
}

func (d *asDiff) fail(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("op %v: %s", d.op, fmt.Sprintf(format, args...))
}

// syncResv rebuilds the reservation pairs from both sides' lists.
func (d *asDiff) syncResv() {
	a, r := d.as.Reservations(), d.ref.Reservations()
	if len(a) != len(r) {
		d.fail("%d reservations, reference %d", len(a), len(r))
	}
	d.resv = d.resv[:0]
	for i := range a {
		if *a[i] != *r[i] {
			d.fail("reservation %d = %+v, reference %+v", i, *a[i], *r[i])
		}
		d.resv = append(d.resv, [2]*Reservation{a[i], r[i]})
	}
}

// addr turns operation bytes into an address: page b (plus a sub-page
// offset from c) of live reservation a, which reaches the guard page just
// past a small reservation's end. a == 255 names a page below HeapBase.
func (d *asDiff) addr(a, b, c byte) uint64 {
	off := uint64(c>>4) * 256
	var va uint64
	switch {
	case a == 255:
		va = uint64(b)*PageSize + off
	case len(d.resv) == 0:
		va = HeapBase + uint64(b)*PageSize + off
	default:
		r := d.resv[int(a)%len(d.resv)][0]
		va = r.Base + uint64(b)%(r.Length/PageSize+1)*PageSize + off
	}
	if page := va &^ (PageSize - 1); !d.seen[page] {
		d.seen[page] = true
		d.touched = append(d.touched, page)
	}
	return va
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func ptesEqual(a, r *PTE) bool {
	if a == nil || r == nil {
		return a == nil && r == nil
	}
	return *a == *r
}

func (d *asDiff) hold(a, r *PTE) {
	if a != nil && r != nil {
		d.held = append(d.held, [2]*PTE{a, r})
	}
}

// pickPTE returns a pair of PTE pointers to write through or fill from:
// a held pair whose page the reference still maps (guards included), or
// the live translation of the addressed page.
func (d *asDiff) pickPTE(a, b, c byte) (*PTE, *PTE, uint64, bool) {
	if c&1 != 0 && len(d.held) > 0 {
		h := d.held[int(b)%len(d.held)]
		for vpn, p := range d.ref.pages {
			if p == h[1] {
				return h[0], h[1], vpn << PageShift, true
			}
		}
		return nil, nil, 0, false
	}
	va := d.addr(a, b, c)
	pa, oka := d.as.Lookup(va)
	pr, okr := d.ref.Lookup(va)
	if oka != okr || !ptesEqual(pa, pr) {
		d.fail("Lookup(%#x) = %v %v, reference %v %v", va, pa, oka, pr, okr)
	}
	return pa, pr, va, oka
}

// step applies one four-byte operation to both sides and compares what
// each returned.
func (d *asDiff) step(op, a, b, c byte) {
	switch op % 12 {
	case 0: // Reserve: small, multi-leaf, one-MiB sparse or unaligned
		var n uint64
		switch a % 4 {
		case 0:
			n = uint64(b%8+1) * PageSize
		case 1:
			n = uint64(17+b%48) * PageSize
		case 2:
			n = 1 << 20
		default:
			n = uint64(b)*97 + 1
		}
		ra, erra := d.as.Reserve(n, ca.PermsData)
		rr, errr := d.ref.Reserve(n, ca.PermsData)
		if errString(erra) != errString(errr) {
			d.fail("Reserve(%d): %v, reference %v", n, erra, errr)
		}
		if c&1 != 0 {
			d.as.MarkNoCaps(ra)
			rr.NoCaps = true
		}
		d.syncResv()
	case 1: // EnsureMapped
		va := d.addr(a, b, c)
		pa, fa, erra := d.as.EnsureMapped(va)
		pr, fr, errr := d.ref.EnsureMapped(va)
		if !ptesEqual(pa, pr) || fa != fr || errString(erra) != errString(errr) {
			d.fail("EnsureMapped(%#x) = %v %v %v, reference %v %v %v", va, pa, fa, erra, pr, fr, errr)
		}
		d.hold(pa, pr)
	case 2: // Lookup
		pa, pr, _, _ := d.pickPTE(a, b, c&^1)
		d.hold(pa, pr)
	case 3: // UnmapRange: c%4 pages from page b, or the whole reservation
		if len(d.resv) == 0 {
			return
		}
		va, n := d.addr(a, b, 0), uint64(c%4)*PageSize
		if n == 0 {
			r := d.resv[int(a)%len(d.resv)][0]
			va, n = r.Base, r.Length
		}
		ra, deada, erra := d.as.UnmapRange(va, n)
		rr, deadr, errr := d.ref.UnmapRange(va, n)
		if (ra == nil) != (rr == nil) || ra != nil && *ra != *rr || deada != deadr || errString(erra) != errString(errr) {
			d.fail("UnmapRange(%#x, %d) = %v %v %v, reference %v %v %v", va, n, ra, deada, erra, rr, deadr, errr)
		}
	case 4: // ReleaseReservation of the first dead reservation from a on
		for i := range d.resv {
			if p := d.resv[(int(a)+i)%len(d.resv)]; p[1].Dead {
				d.as.ReleaseReservation(p[0])
				d.ref.ReleaseReservation(p[1])
				d.syncResv()
				return
			}
		}
	case 5: // TLBFill from a live or held translation, on the cores in c>>1
		pa, pr, va, ok := d.pickPTE(a, b, c)
		for core := 0; ok && core < diffCores; core++ {
			if c>>(core+1)&1 != 0 {
				d.as.TLBFill(core, va, pa)
				d.ref.TLBFill(core, va, pr)
			}
		}
	case 6: // TLBLookup
		va, core := d.addr(a, b, c), int(c)%diffCores
		gen, ok := d.as.TLBLookup(core, va)
		rp, rok := d.ref.TLBLookup(core, va)
		if ok != rok || ok && gen != rp.Gen {
			d.fail("core %d TLBLookup(%#x) = %d %v, reference %d %v", core, va, gen, ok, rp.Gen, rok)
		}
	case 7: // TLBInvalidate
		va, core := d.addr(a, b, c), int(c)%diffCores
		d.as.TLBInvalidate(core, va)
		d.ref.TLBInvalidate(core, va)
	case 8: // ShootdownAll, dropping the IPIs of the cores in a's low bits
		// from now on, including the shootdowns of UnmapRange
		d.drop = a % (1 << diffCores)
		d.as.ShootdownAll()
		d.ref.ShootdownAll()
	case 9: // BumpCoreGen
		core := int(a) % diffCores
		d.as.BumpCoreGen(core)
		d.ref.BumpCoreGen(core)
	case 10: // PTE bit and generation writes through returned pointers
		pa, pr, _, ok := d.pickPTE(a, b, c)
		if !ok {
			return
		}
		switch c >> 1 % 5 {
		case 0:
			pa.Bits |= PTECapDirty | PTEEverCapDirty
			pr.Bits |= PTECapDirty | PTEEverCapDirty
		case 1:
			pa.Bits &^= PTECapDirty
			pr.Bits &^= PTECapDirty
		case 2:
			pa.Bits &^= PTEEverCapDirty
			pr.Bits &^= PTEEverCapDirty
		case 3:
			pa.Bits ^= PTECapLoadTrap
			pr.Bits ^= PTECapLoadTrap
		default:
			core := int(a) % diffCores
			pa.Gen = d.as.CoreGen(core)
			pr.Gen = d.ref.CoreGen(core)
		}
	case 11: // Clone, continuing in the child if b is odd
		child, erra := d.as.Clone()
		childRef, errr := d.ref.Clone()
		if errString(erra) != errString(errr) {
			d.fail("Clone: %v, reference %v", erra, errr)
		}
		if erra != nil {
			return
		}
		d.compare(child, childRef, "clone")
		if b&1 != 0 {
			d.as, d.ref, d.held = child, childRef, nil
			d.setFilters()
			d.syncResv()
		}
	}
}

type mappedPage struct {
	vpn uint64
	pte PTE
}

// compare checks everything observable of a against r: the mapped-page
// walk, statistics, the bank's allocation count, generations, shootdown
// completeness, and every core's TLB answer for every touched page.
func (d *asDiff) compare(a *AddressSpace, r *mapAddressSpace, what string) {
	d.t.Helper()
	var pa, pr []mappedPage
	a.ForEachMappedPage(func(vpn uint64, pte *PTE) bool {
		pa = append(pa, mappedPage{vpn, *pte})
		return true
	})
	r.ForEachMappedPage(func(vpn uint64, pte *PTE) bool {
		pr = append(pr, mappedPage{vpn, *pte})
		return true
	})
	if !slices.Equal(pa, pr) {
		d.fail("%s: ForEachMappedPage = %v, reference %v", what, pa, pr)
	}
	if a.Stats() != r.Stats() {
		d.fail("%s: Stats = %+v, reference %+v", what, a.Stats(), r.Stats())
	}
	if a.Phys().Allocated() != r.phys.Allocated() {
		d.fail("%s: %d frames allocated, reference %d", what, a.Phys().Allocated(), r.phys.Allocated())
	}
	if a.ShootdownIncomplete() != r.ShootdownIncomplete() {
		d.fail("%s: ShootdownIncomplete = %v, reference %v", what, a.ShootdownIncomplete(), r.ShootdownIncomplete())
	}
	for core := 0; core < diffCores; core++ {
		if a.CoreGen(core) != r.CoreGen(core) {
			d.fail("%s: core %d generation %d, reference %d", what, core, a.CoreGen(core), r.CoreGen(core))
		}
		for _, va := range d.touched {
			gen, ok := a.TLBLookup(core, va)
			rp, rok := r.TLBLookup(core, va)
			if ok != rok || ok && gen != rp.Gen {
				d.fail("%s: core %d TLBLookup(%#x) = %d %v, reference %d %v", what, core, va, gen, ok, rp.Gen, rok)
			}
		}
	}
}

// maxOps bounds the operations one input runs: the comparison after each
// costs O(pages + touched pages × cores), so longer inputs only slow the
// fuzzer down.
const maxOps = 128

// runASOps decodes data four bytes at a time (opcode, reservation, page,
// argument), applies each operation to both sides and compares them after
// every one.
func runASOps(t *testing.T, data []byte) {
	d := newASDiff(t)
	if len(data) > 4*maxOps {
		data = data[:4*maxOps]
	}
	for ; len(data) >= 4; data = data[4:] {
		d.op = data[:4]
		d.step(data[0], data[1], data[2], data[3])
		d.compare(d.as, d.ref, "address space")
	}
}

// TestAddressSpaceMatchesMapReference runs seeded random operation
// sequences against the map reference.
func TestAddressSpaceMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		data := make([]byte, 4*maxOps)
		rand.New(rand.NewSource(seed)).Read(data)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runASOps(t, data) })
	}
}

// FuzzAddressSpace decodes its input into reservations (small, multi-leaf,
// one-MiB sparse, unaligned), demand maps, lookups, partial and whole
// unmaps, releases of dead reservations, per-core TLB fills, lookups and
// invalidations, shootdowns that drop chosen cores' IPIs, generation bumps,
// PTE writes through returned and held pointers, and clones, and requires
// the leaf directory with its stamped TLBs to answer every one as the map
// reference does.
func FuzzAddressSpace(f *testing.F) {
	// Each operation is four bytes: opcode, reservation, page, argument.
	f.Add([]byte{0, 0, 3, 0, 1, 0, 0, 0, 1, 0, 2, 0, 5, 0, 0, 2, 6, 0, 0, 1, 8, 0, 0, 0, 6, 0, 0, 1})
	// A dropped IPI keeps a core's entry across an unmap and a release.
	f.Add([]byte{0, 0, 1, 0, 1, 0, 0, 0, 5, 0, 0, 4, 8, 2, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 6, 0, 0, 1, 8, 0, 0, 0, 6, 0, 0, 1})
	// Sparse one-MiB reservations, a multi-leaf one, partial unmaps.
	f.Add([]byte{0, 2, 0, 0, 0, 2, 0, 0, 0, 1, 40, 0, 1, 0, 0, 0, 1, 0, 128, 0, 1, 1, 200, 0, 1, 2, 30, 0,
		3, 2, 16, 3, 1, 2, 17, 0, 5, 1, 128, 6, 9, 1, 0, 0, 10, 0, 0, 8, 6, 1, 128, 3})
	// Clones of a page table holding guards, then work in the child.
	f.Add([]byte{0, 1, 5, 1, 1, 0, 3, 0, 1, 0, 20, 0, 3, 0, 4, 2, 10, 0, 3, 0, 11, 1, 1, 0, 1, 0, 5, 0,
		11, 0, 1, 0, 3, 0, 0, 0, 4, 0, 0, 0})
	// Generation bumps against stale TLB entries, writes through held pointers.
	f.Add([]byte{0, 0, 7, 0, 1, 0, 1, 0, 5, 0, 1, 0, 9, 0, 0, 0, 9, 1, 0, 0, 10, 0, 0, 9, 6, 0, 1, 0,
		10, 0, 0, 3, 7, 0, 1, 0, 6, 0, 1, 0, 255, 0, 0, 0})
	f.Fuzz(runASOps)
}
