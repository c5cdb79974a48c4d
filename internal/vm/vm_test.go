package vm

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/ca"
	"repro/internal/tmem"
)

func newAS(t *testing.T) *AddressSpace {
	t.Helper()
	return NewAddressSpace(tmem.NewPhys(1<<16), 4)
}

func TestReserveReturnsBoundedRoot(t *testing.T) {
	as := newAS(t)
	r, err := as.Reserve(10_000, ca.PermsData)
	if err != nil {
		t.Fatal(err)
	}
	if r.Length < 10_000 || r.Length%PageSize != 0 {
		t.Fatalf("reservation length %d", r.Length)
	}
	if !r.Root.Tag() || r.Root.Base() != r.Base || r.Root.Len() != r.Length {
		t.Fatalf("root %v does not span reservation [%#x,+%d)", r.Root, r.Base, r.Length)
	}
}

func TestReservationsDoNotOverlap(t *testing.T) {
	as := newAS(t)
	var prev *Reservation
	for i := 0; i < 20; i++ {
		r, err := as.Reserve(uint64(1000*(i+1)), ca.PermsData)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && r.Base < prev.Base+prev.Length+PageSize {
			t.Fatalf("reservation %d at %#x overlaps/abuts previous end %#x (no guard)",
				i, r.Base, prev.Base+prev.Length)
		}
		prev = r
	}
}

func TestDemandPaging(t *testing.T) {
	as := newAS(t)
	r, _ := as.Reserve(8*PageSize, ca.PermsData)
	pte, faulted, err := as.EnsureMapped(r.Base + 5*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !faulted {
		t.Fatal("first touch did not soft-fault")
	}
	if pte.Bits&PTEValid == 0 || pte.Frame == tmem.NoFrame {
		t.Fatal("PTE not materialized")
	}
	if as.MappedPageCount() != 1 {
		t.Fatalf("RSS = %d pages, want 1", as.MappedPageCount())
	}
	_, faulted2, _ := as.EnsureMapped(r.Base + 5*PageSize)
	if faulted2 {
		t.Fatal("second touch soft-faulted")
	}
	if got := as.Stats().SoftFaults; got != 1 {
		t.Fatalf("soft faults = %d, want 1", got)
	}
}

func TestAccessOutsideReservationFaults(t *testing.T) {
	as := newAS(t)
	_, _, err := as.EnsureMapped(0x42)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultUnmapped {
		t.Fatalf("err = %v, want unmapped fault", err)
	}
}

func TestUnmapLeavesGuards(t *testing.T) {
	as := newAS(t)
	r, _ := as.Reserve(4*PageSize, ca.PermsData)
	for i := uint64(0); i < 4; i++ {
		if _, _, err := as.EnsureMapped(r.Base + i*PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if _, dead, err := as.UnmapRange(r.Base+PageSize, PageSize); err != nil || dead {
		t.Fatalf("partial unmap: dead=%v err=%v", dead, err)
	}
	// The hole must not be re-mappable.
	if _, _, err := as.EnsureMapped(r.Base + PageSize); err == nil {
		t.Fatal("guard page re-materialized")
	}
	if as.MappedPageCount() != 3 {
		t.Fatalf("RSS = %d, want 3", as.MappedPageCount())
	}
	// Other pages still fine.
	if _, _, err := as.EnsureMapped(r.Base + 2*PageSize); err != nil {
		t.Fatal(err)
	}
}

func TestFullUnmapMarksReservationDead(t *testing.T) {
	as := newAS(t)
	r, _ := as.Reserve(2*PageSize, ca.PermsData)
	as.EnsureMapped(r.Base)
	_, dead, err := as.UnmapRange(r.Base, r.Length)
	if err != nil {
		t.Fatal(err)
	}
	if !dead || !r.Dead {
		t.Fatal("full unmap did not mark reservation dead")
	}
	// New reservations must not reuse the dead span before release.
	r2, _ := as.Reserve(PageSize, ca.PermsData)
	if r2.Base < r.Base+r.Length {
		t.Fatalf("new reservation at %#x reuses dead span at %#x", r2.Base, r.Base)
	}
	as.ReleaseReservation(r)
	if _, ok := as.Lookup(r.Base); ok {
		t.Fatal("released reservation still mapped")
	}
}

func TestForEachMappedPageOrderedDeterministic(t *testing.T) {
	as := newAS(t)
	r, _ := as.Reserve(64*PageSize, ca.PermsData)
	// Touch pages out of order.
	for _, i := range []uint64{30, 2, 55, 7, 41} {
		as.EnsureMapped(r.Base + i*PageSize)
	}
	var got []uint64
	as.ForEachMappedPage(func(vpn uint64, pte *PTE) bool {
		got = append(got, vpn)
		return true
	})
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("pages not in ascending order: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("visited %d pages, want 5", len(got))
	}
}

func TestGenerationProtocol(t *testing.T) {
	as := newAS(t)
	r, _ := as.Reserve(PageSize, ca.PermsData)
	pte, _, _ := as.EnsureMapped(r.Base)
	if as.GenMismatch(0, pte) {
		t.Fatal("fresh page mismatches at steady state")
	}
	// Epoch start: bump every core's in-core generation. PTEs untouched.
	for c := 0; c < 4; c++ {
		as.BumpCoreGen(c)
	}
	if !as.GenMismatch(0, pte) {
		t.Fatal("no mismatch after generation bump")
	}
	// Revoker visits the page: update the PTE to the new generation.
	pte.Gen = as.CoreGen(0)
	if as.GenMismatch(2, pte) {
		t.Fatal("mismatch after revoker updated PTE")
	}
}

func TestTLBCachesStaleGeneration(t *testing.T) {
	as := newAS(t)
	r, _ := as.Reserve(PageSize, ca.PermsData)
	pte, _, _ := as.EnsureMapped(r.Base)
	as.TLBFill(1, r.Base, pte)
	// Revoker sweeps: bump gens, update PTE, but core 1's TLB still holds
	// the old snapshot.
	for c := 0; c < 4; c++ {
		as.BumpCoreGen(c)
	}
	pte.Gen = as.CoreGen(0)
	gen, ok := as.TLBLookup(1, r.Base)
	if !ok {
		t.Fatal("TLB entry lost")
	}
	if gen == as.CoreGen(1) {
		t.Fatal("TLB magically saw the new generation")
	}
	// After a shootdown the stale entry is gone.
	as.ShootdownAll()
	if _, ok := as.TLBLookup(1, r.Base); ok {
		t.Fatal("TLB entry survived shootdown")
	}
	if as.Stats().Shootdowns == 0 {
		t.Fatal("shootdown not counted")
	}
}

// TestShootdownAllCountsOperationsNotCores pins the Shootdowns stat's unit:
// one ShootdownAll is one operation (one IPI broadcast), regardless of how
// many cores held entries — and every per-core TLB is invalidated, including
// cores that never cached anything.
func TestShootdownAllCountsOperationsNotCores(t *testing.T) {
	as := newAS(t) // 4 cores
	r, _ := as.Reserve(4*PageSize, ca.PermsData)
	pte, _, err := as.EnsureMapped(r.Base)
	if err != nil {
		t.Fatal(err)
	}
	// Fill TLBs on cores 0 and 2 only; cores 1 and 3 stay empty.
	as.TLBFill(0, r.Base, pte)
	as.TLBFill(2, r.Base, pte)

	as.ShootdownAll()
	if got := as.Stats().Shootdowns; got != 1 {
		t.Fatalf("Shootdowns = %d after one ShootdownAll, want 1 (operations, not cores)", got)
	}
	for core := 0; core < 4; core++ {
		if _, ok := as.TLBLookup(core, r.Base); ok {
			t.Errorf("core %d TLB still holds an entry after ShootdownAll", core)
		}
	}

	// A second shootdown — with every TLB already empty — still counts as
	// one more operation.
	as.ShootdownAll()
	if got := as.Stats().Shootdowns; got != 2 {
		t.Fatalf("Shootdowns = %d after two ShootdownAll calls, want 2", got)
	}

	// Refilled entries are gone again after a further shootdown, and the
	// OnShootdown hook fires once per operation.
	fired := 0
	as.OnShootdown = func() { fired++ }
	as.TLBFill(1, r.Base, pte)
	as.TLBFill(3, r.Base, pte)
	as.ShootdownAll()
	if fired != 1 {
		t.Fatalf("OnShootdown fired %d times for one operation, want 1", fired)
	}
	if got := as.Stats().Shootdowns; got != 3 {
		t.Fatalf("Shootdowns = %d after three ShootdownAll calls, want 3", got)
	}
	for _, core := range []int{1, 3} {
		if _, ok := as.TLBLookup(core, r.Base); ok {
			t.Errorf("core %d TLB survived the third shootdown", core)
		}
	}
}

func TestCapDirtyBits(t *testing.T) {
	as := newAS(t)
	r, _ := as.Reserve(PageSize, ca.PermsData)
	pte, _, _ := as.EnsureMapped(r.Base)
	if pte.Bits&PTECapDirty != 0 {
		t.Fatal("fresh page capability-dirty")
	}
	pte.Bits |= PTECapDirty | PTEEverCapDirty
	pte.Bits &^= PTECapDirty // revoker cleans
	if pte.Bits&PTEEverCapDirty == 0 {
		t.Fatal("ever-dirty flag lost on clean")
	}
}

func TestGranuleOf(t *testing.T) {
	vpn, g := GranuleOf(0x12345)
	if vpn != 0x12 || g != (0x345)/16 {
		t.Fatalf("GranuleOf = (%#x,%d)", vpn, g)
	}
}

func TestUnmapEscapingReservationRejected(t *testing.T) {
	as := newAS(t)
	r, _ := as.Reserve(2*PageSize, ca.PermsData)
	if _, _, err := as.UnmapRange(r.Base, r.Length+PageSize); err == nil {
		t.Fatal("unmap escaping reservation accepted")
	}
}

func TestUnmapFreesFrames(t *testing.T) {
	phys := tmem.NewPhys(8)
	as := NewAddressSpace(phys, 1)
	r, _ := as.Reserve(4*PageSize, ca.PermsData)
	for i := uint64(0); i < 4; i++ {
		as.EnsureMapped(r.Base + i*PageSize)
	}
	if phys.Allocated() != 4 {
		t.Fatalf("frames = %d", phys.Allocated())
	}
	as.UnmapRange(r.Base, r.Length)
	if phys.Allocated() != 0 {
		t.Fatalf("frames after unmap = %d, want 0", phys.Allocated())
	}
}

// TestSparseReservationsCostLittlePerPage pins the page table's memory on
// conn-fleet's shape: 8,192 one-MiB reservations, each with resident pages
// at offsets 0 and 512 KiB and their TLB entries filled on 4 cores. Every
// resident page then sits in a leaf of its own, and the whole address
// space may allocate at most 1 KiB per resident page. A page table of
// 512-entry leaves spends about 7 KiB per page here.
func TestSparseReservationsCostLittlePerPage(t *testing.T) {
	const resv, cores = 8192, 4
	phys := tmem.NewPhys(2 * resv)
	// Warm the frame pool, so that only the address space's own
	// allocations are counted.
	ids := make([]tmem.FrameID, 2*resv)
	for i := range ids {
		ids[i], _ = phys.AllocFrame()
	}
	for _, id := range ids {
		phys.FreeFrame(id)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	as := NewAddressSpace(phys, cores)
	for i := 0; i < resv; i++ {
		r, err := as.Reserve(1<<20, ca.PermsData)
		if err != nil {
			t.Fatal(err)
		}
		for _, va := range []uint64{r.Base, r.Base + 512<<10} {
			pte, _, err := as.EnsureMapped(va)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < cores; c++ {
				as.TLBFill(c, va, pte)
			}
		}
	}
	runtime.ReadMemStats(&after)
	pages := uint64(as.MappedPageCount())
	if pages != 2*resv {
		t.Fatalf("%d resident pages, want %d", pages, 2*resv)
	}
	per := (after.TotalAlloc - before.TotalAlloc) / pages
	t.Logf("%d B allocated per resident page", per)
	if per > 1<<10 {
		t.Errorf("sparse reservations allocated %d B per resident page, want at most 1 KiB", per)
	}
}

// TestShootdownAllocatesNothing pins the stamped TLBs: a shootdown
// invalidates every core's entries by bumping stamps, without allocating.
func TestShootdownAllocatesNothing(t *testing.T) {
	as := newAS(t)
	r, _ := as.Reserve(4*PageSize, ca.PermsData)
	pte, _, _ := as.EnsureMapped(r.Base)
	allocs := testing.AllocsPerRun(100, func() {
		for c := 0; c < 4; c++ {
			as.TLBFill(c, r.Base, pte)
		}
		as.ShootdownAll()
	})
	if allocs != 0 {
		t.Errorf("ShootdownAll made %v heap allocations, want 0", allocs)
	}
	if _, ok := as.TLBLookup(0, r.Base); ok {
		t.Error("TLB entry survived the shootdown")
	}
}

// TestTLBStampWrap drives a core's stamp through its 31-bit wrap: entries
// filled before the wrap must not come back to life when the restarted
// stamp climbs to the value they carry, and a core whose IPI is dropped
// keeps its stamp and its entries.
func TestTLBStampWrap(t *testing.T) {
	as := newAS(t)
	r, _ := as.Reserve(2*PageSize, ca.PermsData)
	a, _, _ := as.EnsureMapped(r.Base)
	b, _, _ := as.EnsureMapped(r.Base + PageSize)
	// Core 0's entry for page a carries stamp 2, which the restarted stamp
	// reaches again one shootdown after the wrap.
	as.stamp[0] = 2
	as.TLBFill(0, r.Base, a)
	as.stamp[0] = stampLimit - 1
	as.TLBFill(0, r.Base+PageSize, b)
	as.TLBFill(1, r.Base, a)
	as.ShootdownFilter = func(core int) bool { return core == 1 }
	as.ShootdownAll()
	if as.stamp[0] != 1 {
		t.Fatalf("core 0 stamp %d after the wrap, want 1", as.stamp[0])
	}
	as.ShootdownAll()
	for _, va := range []uint64{r.Base, r.Base + PageSize} {
		if _, ok := as.TLBLookup(0, va); ok {
			t.Errorf("core 0 entry for %#x survived the stamp wrap", va)
		}
	}
	if _, ok := as.TLBLookup(1, r.Base); !ok {
		t.Error("core 1, whose IPIs were dropped, lost its entry")
	}
}

// TestReleaseDropsIdleLeaves checks that a released reservation's leaves
// are dropped, unless a core whose shootdown IPI was dropped still caches
// one of its pages: that core keeps answering from its stale entry.
func TestReleaseDropsIdleLeaves(t *testing.T) {
	as := newAS(t)
	r1, _ := as.Reserve(64<<10, ca.PermsData)
	r2, _ := as.Reserve(64<<10, ca.PermsData)
	pte, _, _ := as.EnsureMapped(r1.Base)
	as.TLBFill(3, r1.Base, pte)
	as.UnmapRange(r1.Base, r1.Length)
	pte, _, _ = as.EnsureMapped(r2.Base)
	as.TLBFill(3, r2.Base, pte)
	as.ShootdownFilter = func(core int) bool { return core == 3 }
	as.UnmapRange(r2.Base, r2.Length)
	as.ReleaseReservation(r1)
	as.ReleaseReservation(r2)
	if l := as.leafOf(r1.Base >> PageShift); l != nil {
		t.Error("a released reservation no core caches kept its leaf")
	}
	if _, ok := as.TLBLookup(3, r2.Base); !ok {
		t.Error("core 3 lost the stale entry its dropped IPI left behind")
	}
	if _, ok := as.Lookup(r2.Base); ok {
		t.Error("released page still translates")
	}
}
