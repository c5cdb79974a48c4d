// Package alloc is an snmalloc-inspired CHERI-aware heap allocator
// (snmalloc is the allocator the paper's evaluation shims in, §5).
//
// Structure: each thread owns an Allocator; Allocators carve 1 MiB chunks
// from kernel reservations, slabs of 64 KiB per size class from chunks, and
// objects from slabs via in-band free lists. Frees from a different thread
// are routed to the owner through a remote-free message queue, drained at
// the owner's next allocation — snmalloc's message-passing design. Returned
// capabilities have exact bounds equal to the (representable) class size.
//
// The allocator itself never quarantines: temporal safety is layered on by
// the mrs shim in package quarantine, which interposes on free. To support
// it, Heap exposes Lookup (address → live allocation), Release (return
// storage to free lists after revocation), and the paint authority covering
// each address.
package alloc

import (
	"errors"
	"fmt"

	"repro/internal/bus"
	"repro/internal/ca"
	"repro/internal/kernel"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Errors reported by heap operations.
var (
	ErrBadFree    = errors.New("alloc: free of address not owned by the heap")
	ErrDoubleFree = errors.New("alloc: double free")
	ErrWildFree   = errors.New("alloc: free of interior or misaligned pointer")
)

// slab serves one size class from a 64 KiB span.
type slab struct {
	class int
	ch    *chunk // the chunk the span lies in
	base  uint64
	used  int
	free  []uint64 // LIFO free list of object addresses
	next  uint64   // bump pointer for never-used space
	// live has bit i set while the object in slot i, at base +
	// i*ClassSize(class), is allocated.
	live []uint64
	// inPartial tracks membership in the owner's partial list, preventing
	// duplicate entries (a slab that filled while buried in the list and
	// later frees an object would otherwise be appended a second time,
	// leaving a dangling reference when the slab is reclaimed).
	inPartial bool
}

// chunk is a 1 MiB reservation: one metadata page followed by data pages.
type chunk struct {
	owner *Allocator
	res   *vm.Reservation
	root  ca.Capability
	// bump is the offset of the next uncarved byte (starts after metadata).
	bump uint64
	// slabs holds the slab carved from each SlabSize span of the chunk,
	// indexed by span (nil where no slab is: span 0, which holds the
	// metadata page, and spans given to medium allocations or freed).
	slabs [chunkSize / SlabSize]*slab
	// mediumLive maps live medium allocation addresses to sizes, and
	// mediumFree holds freed medium extents keyed by size. Both are nil
	// until the chunk's first medium allocation.
	mediumLive map[uint64]uint64
	mediumFree map[uint64][]uint64
	// freeSpans holds slab-sized spans reclaimed from emptied slabs,
	// available to back a new slab of any size class.
	freeSpans []uint64
}

// slabAt returns the slab whose span contains addr, or nil.
func (c *chunk) slabAt(addr uint64) *slab {
	return c.slabs[(addr-c.res.Base)/SlabSize]
}

// metaVA returns the metadata address charged for bookkeeping touching the
// given data address.
func (c *chunk) metaVA(addr uint64) uint64 {
	return c.res.Base + (addr-c.res.Base)/SlabSize*64%vm.PageSize
}

// large is an allocation with its own reservation.
type large struct {
	owner *Allocator
	res   *vm.Reservation
	size  uint64
}

// Allocator is one thread's allocator.
type Allocator struct {
	heap    *Heap
	th      *kernel.Thread
	partial [][]*slab // per class: slabs with space
	remote  []remoteFree
	// cur is the chunk currently being carved.
	cur *chunk
	// spanChunks lists the allocator's chunks that hold a reclaimed span,
	// and extentChunks, per extent size, those that hold a freed medium
	// extent of that size; both in base order, so reuse takes the
	// lowest-base chunk without visiting chunks that hold nothing.
	spanChunks   []*chunk
	extentChunks map[uint64][]*chunk
}

type remoteFree struct {
	addr uint64
	size uint64
}

// Stats aggregates heap counters.
type Stats struct {
	// LiveBytes is currently-allocated payload.
	LiveBytes uint64
	// PeakLiveBytes is the high-water mark of LiveBytes.
	PeakLiveBytes uint64
	// TotalAllocated and TotalFreed accumulate payload volume.
	TotalAllocated, TotalFreed uint64
	// Allocs and Frees count operations.
	Allocs, Frees uint64
	// RemoteFrees counts frees routed cross-thread.
	RemoteFrees uint64
	// Chunks counts chunk reservations created.
	Chunks uint64
}

// Heap is a process-wide view over per-thread Allocators.
type Heap struct {
	P *kernel.Process
	// allocs in creation order; byID indexes them by sim thread id.
	allocs []*Allocator
	byID   []*Allocator
	// chunks lists every chunk in base order, and bases their reservation
	// bases, which find binary-searches.
	chunks   []*chunk
	bases    []uint64
	larges   map[uint64]*large
	stats    Stats
	coloring bool
}

// NewHeap creates an empty heap for the process.
func NewHeap(p *kernel.Process) *Heap {
	return &Heap{
		P:      p,
		larges: make(map[uint64]*large),
	}
}

// SetColoring enables §7.3 color stamping: allocations return capabilities
// colored to match their memory.
func (h *Heap) SetColoring(on bool) { h.coloring = on }

// Stats returns a snapshot of heap counters.
func (h *Heap) Stats() Stats { return h.stats }

// LiveBytes returns currently-allocated payload bytes.
func (h *Heap) LiveBytes() uint64 { return h.stats.LiveBytes }

// AllocatorFor returns (creating on demand) th's allocator.
func (h *Heap) AllocatorFor(th *kernel.Thread) *Allocator {
	if a := h.allocatorOf(th); a != nil {
		return a
	}
	a := &Allocator{heap: h, th: th, partial: make([][]*slab, NumClasses())}
	id := th.Sim.ID()
	if id >= len(h.byID) {
		h.byID = append(h.byID, make([]*Allocator, id+1-len(h.byID))...)
	}
	h.byID[id] = a
	h.allocs = append(h.allocs, a)
	return a
}

// allocatorOf returns th's allocator, or nil if it has none yet. Sim
// thread ids are dense from 0, so byID is never longer than the engine's
// thread list.
func (h *Heap) allocatorOf(th *kernel.Thread) *Allocator {
	if id := th.Sim.ID(); id < len(h.byID) {
		return h.byID[id]
	}
	return nil
}

// asAllocator runs f with th's traffic attributed to the allocator agent.
func asAllocator(th *kernel.Thread, f func()) {
	prev := th.Agent
	th.Agent = bus.AgentAlloc
	f()
	th.Agent = prev
}

// Alloc allocates size bytes on behalf of th, returning a capability with
// exact bounds over the rounded size.
func (h *Heap) Alloc(th *kernel.Thread, size uint64) (ca.Capability, error) {
	th.P.M.Telem.Enter(th.Sim, telemetry.CompAlloc)
	defer th.P.M.Telem.Exit(th.Sim)
	var c ca.Capability
	var err error
	asAllocator(th, func() {
		a := h.AllocatorFor(th)
		a.drainRemote()
		c, err = a.alloc(size)
	})
	return c, err
}

// alloc is the owner-thread allocation path.
func (a *Allocator) alloc(size uint64) (ca.Capability, error) {
	h := a.heap
	th := a.th
	th.Work(30) // malloc fast-path instructions
	rounded := RoundAlloc(size)
	var addr uint64
	var root ca.Capability
	switch {
	case size <= MaxSmall:
		cl := SizeToClass(size)
		s, ch, err := a.slabFor(cl)
		if err != nil {
			return ca.Capability{}, err
		}
		if n := len(s.free); n > 0 {
			addr = s.free[n-1]
			s.free = s.free[:n-1]
			// Read the in-band freelist node.
			if err := th.Load(ch.root.WithAddr(addr), 0, MinAlloc); err != nil {
				return ca.Capability{}, err
			}
		} else {
			addr = s.next
			s.next += ClassSize(cl)
		}
		s.used++
		s.setLive((addr-s.base)/ClassSize(cl), true)
		root = ch.root
		// Touch the slab's metadata line.
		th.Work(th.P.M.Bus.Access(th.Sim.CoreID(), ch.metaVA(addr), th.Agent, true))
	case rounded <= MaxMedium:
		var ch *chunk
		var err error
		addr, ch, err = a.allocMedium(rounded)
		if err != nil {
			return ca.Capability{}, err
		}
		root = ch.root
	default:
		l, err := a.allocLarge(rounded)
		if err != nil {
			return ca.Capability{}, err
		}
		addr = l.res.Base
		root = l.res.Root
	}
	h.stats.Allocs++
	h.stats.LiveBytes += rounded
	h.stats.TotalAllocated += rounded
	if h.stats.LiveBytes > h.stats.PeakLiveBytes {
		h.stats.PeakLiveBytes = h.stats.LiveBytes
	}
	c, err := root.WithAddr(addr).SetBoundsExact(rounded)
	if err != nil {
		return ca.Capability{}, fmt.Errorf("alloc: bounds derivation: %w", err)
	}
	if h.coloring {
		// While the derived capability still carries the chunk root's
		// PermRecolor, stamp it with its memory's current color (§7.3).
		if c, err = c.WithColor(a.colorAt(addr)); err != nil {
			return ca.Capability{}, err
		}
	}
	return c.ClearPerms(ca.PermPaint | ca.PermRecolor), nil
}

// colorAt returns the memory color at addr (zero for unmaterialized pages).
func (a *Allocator) colorAt(addr uint64) uint8 {
	pte, ok := a.th.P.AS.Lookup(addr)
	if !ok {
		return 0
	}
	_, g := vm.GranuleOf(addr)
	return a.th.P.M.Phys.ColorOf(pte.Frame, g)
}

// newSlab returns an empty slab of class cl over the span of ch at base,
// already on its owner's partial list.
func newSlab(cl int, ch *chunk, base uint64) *slab {
	slots := SlabSize / ClassSize(cl)
	return &slab{
		class:     cl,
		ch:        ch,
		base:      base,
		next:      base,
		live:      make([]uint64, (slots+63)/64),
		inPartial: true,
	}
}

// hasSpace reports whether the slab can serve another object.
func (s *slab) hasSpace() bool {
	return len(s.free) > 0 || s.next+ClassSize(s.class) <= s.base+SlabSize
}

// isLive reports whether the object in slot i is allocated. A slot past
// the slab's last whole object never is: its bit is never set, or lies
// past the bitmap.
func (s *slab) isLive(i uint64) bool {
	return i/64 < uint64(len(s.live)) && s.live[i/64]&(1<<(i%64)) != 0
}

// setLive marks the object in slot i allocated or free.
func (s *slab) setLive(i uint64, on bool) {
	if on {
		s.live[i/64] |= 1 << (i % 64)
	} else {
		s.live[i/64] &^= 1 << (i % 64)
	}
}

// slabFor returns a slab with space for class cl, carving a new one as
// needed. Full slabs are dropped from the partial list as they are found;
// release re-inserts them when an object comes back.
func (a *Allocator) slabFor(cl int) (*slab, *chunk, error) {
	lst := a.partial[cl]
	for len(lst) > 0 {
		s := lst[len(lst)-1]
		if s.hasSpace() {
			a.partial[cl] = lst
			return s, s.ch, nil
		}
		s.inPartial = false
		lst = lst[:len(lst)-1]
	}
	a.partial[cl] = lst
	// Prefer a span reclaimed from an emptied slab: the last one reclaimed
	// in the lowest-base chunk that holds one.
	if len(a.spanChunks) > 0 {
		ch := a.spanChunks[0]
		n := len(ch.freeSpans) - 1
		base := ch.freeSpans[n]
		ch.freeSpans = ch.freeSpans[:n]
		if n == 0 {
			a.spanChunks = dropFirst(a.spanChunks)
		}
		s := newSlab(cl, ch, base)
		ch.slabs[(base-ch.res.Base)/SlabSize] = s
		a.partial[cl] = append(a.partial[cl], s)
		a.th.Work(200)
		return s, ch, nil
	}
	ch, off, err := a.carve(SlabSize, SlabSize)
	if err != nil {
		return nil, nil, err
	}
	s := newSlab(cl, ch, ch.res.Base+off)
	ch.slabs[off/SlabSize] = s
	a.partial[cl] = append(a.partial[cl], s)
	// Initialize slab metadata.
	a.th.Work(200)
	return s, ch, nil
}

// carve takes size bytes (aligned to align) from the allocator's current
// chunk, reserving a fresh chunk when exhausted.
func (a *Allocator) carve(size, align uint64) (*chunk, uint64, error) {
	if a.cur != nil {
		off := (a.cur.bump + align - 1) &^ (align - 1)
		if off+size <= chunkSize {
			a.cur.bump = off + size
			return a.cur, off, nil
		}
	}
	res, err := a.th.Mmap(chunkSize, ca.PermsData|ca.PermPaint|ca.PermRecolor)
	if err != nil {
		return nil, 0, err
	}
	ch := &chunk{
		owner: a,
		res:   res,
		root:  res.Root,
		bump:  vm.PageSize, // first page is metadata
	}
	a.heap.insertChunk(ch)
	a.heap.stats.Chunks++
	a.th.P.M.Trace.Instant(a.th.Sim.Now(), a.th.Sim.CoreID(), bus.AgentAlloc,
		trace.KindChunk, a.th.P.Epoch(), res.Base, res.Length)
	a.cur = ch
	off := (ch.bump + align - 1) &^ (align - 1)
	ch.bump = off + size
	return ch, off, nil
}

// allocMedium serves page-granular allocations from chunk space.
func (a *Allocator) allocMedium(rounded uint64) (uint64, *chunk, error) {
	// Reuse a freed extent of the same size if available: the last one
	// freed in the lowest-base chunk that holds one.
	if chs := a.extentChunks[rounded]; len(chs) > 0 {
		ch := chs[0]
		lst := ch.mediumFree[rounded]
		n := len(lst) - 1
		addr := lst[n]
		ch.mediumFree[rounded] = lst[:n]
		if n == 0 {
			a.extentChunks[rounded] = dropFirst(chs)
		}
		ch.mediumLive[addr] = rounded
		a.th.Work(60)
		return addr, ch, nil
	}
	align := ca.RepresentableAlign(rounded)
	if align < vm.PageSize {
		align = vm.PageSize
	}
	ch, off, err := a.carve(rounded, align)
	if err != nil {
		return 0, nil, err
	}
	if ch.mediumLive == nil {
		ch.mediumLive = make(map[uint64]uint64)
		ch.mediumFree = make(map[uint64][]uint64)
	}
	addr := ch.res.Base + off
	ch.mediumLive[addr] = rounded
	a.th.Work(100)
	return addr, ch, nil
}

// allocLarge gives the allocation its own reservation.
func (a *Allocator) allocLarge(rounded uint64) (*large, error) {
	res, err := a.th.Mmap(rounded, ca.PermsData|ca.PermPaint|ca.PermRecolor)
	if err != nil {
		return nil, err
	}
	l := &large{owner: a, res: res, size: rounded}
	a.heap.larges[res.Base] = l
	return l, nil
}

// insertByBase inserts ch into chs, which is in base order.
func insertByBase(chs []*chunk, ch *chunk) []*chunk {
	i := len(chs)
	for i > 0 && chs[i-1].res.Base > ch.res.Base {
		i--
	}
	chs = append(chs, nil)
	copy(chs[i+1:], chs[i:])
	chs[i] = ch
	return chs
}

// dropFirst removes chs[0], keeping chs's array.
func dropFirst(chs []*chunk) []*chunk {
	n := copy(chs, chs[1:])
	chs[n] = nil
	return chs[:n]
}

// chunksAtOrBelow returns the number of chunks whose base is at most addr.
func (h *Heap) chunksAtOrBelow(addr uint64) int {
	i, j := 0, len(h.bases)
	for i < j {
		m := int(uint(i+j) >> 1)
		if h.bases[m] <= addr {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

// insertChunk keeps the chunk list and its bases in base order.
func (h *Heap) insertChunk(ch *chunk) {
	i := h.chunksAtOrBelow(ch.res.Base)
	h.chunks = append(h.chunks, nil)
	copy(h.chunks[i+1:], h.chunks[i:])
	h.chunks[i] = ch
	h.bases = append(h.bases, 0)
	copy(h.bases[i+1:], h.bases[i:])
	h.bases[i] = ch.res.Base
}

// find locates the owner of addr: its chunk (or nil) and large record (or
// nil). The chunks are searched first, since nearly every allocation lives
// in one; a large has its own reservation, never inside a chunk, so the
// larges map is consulted only for an address no chunk holds. Every chunk
// reservation is chunkSize long.
func (h *Heap) find(addr uint64) (*chunk, *large, bool) {
	if i := h.chunksAtOrBelow(addr); i > 0 && addr-h.bases[i-1] < chunkSize {
		return h.chunks[i-1], nil, true
	}
	if l, ok := h.larges[addr]; ok {
		return nil, l, true
	}
	return nil, nil, false
}

// Lookup resolves addr to its live allocation: (base, size, ok). Interior
// pointers resolve to their containing object.
func (h *Heap) Lookup(addr uint64) (uint64, uint64, bool) {
	ch, l, ok := h.find(addr)
	if !ok {
		return 0, 0, false
	}
	if l != nil {
		return l.res.Base, l.size, true
	}
	if s := ch.slabAt(addr); s != nil {
		size := ClassSize(s.class)
		if i := (addr - s.base) / size; s.isLive(i) {
			return s.base + i*size, size, true
		}
		return 0, 0, false
	}
	// Medium: scan the live map (medium allocations are few and aligned).
	for base, size := range ch.mediumLive {
		if addr >= base && addr < base+size {
			return base, size, true
		}
	}
	return 0, 0, false
}

// PaintAuth returns the capability with painting authority over addr
// (the owning chunk's or reservation's root).
func (h *Heap) PaintAuth(addr uint64) (ca.Capability, bool) {
	ch, l, ok := h.find(addr)
	if !ok {
		return ca.Capability{}, false
	}
	if l != nil {
		return l.res.Root, true
	}
	return ch.root, true
}

// Free validates and releases an allocation immediately (no quarantine).
// Baseline (non-temporal-safety) configurations use this; mrs replaces it
// with quarantine + deferred Release.
func (h *Heap) Free(th *kernel.Thread, c ca.Capability) error {
	th.P.M.Telem.Enter(th.Sim, telemetry.CompAlloc)
	defer th.P.M.Telem.Exit(th.Sim)
	if !c.Tag() {
		return fmt.Errorf("%w: untagged capability", ErrBadFree)
	}
	base, size, ok := h.Lookup(c.Base())
	if !ok {
		return ErrDoubleFree
	}
	if base != c.Base() {
		return ErrWildFree
	}
	return h.Release(th, base, size)
}

// Release returns storage at (base, size) to the free lists. With mrs
// layered on top this happens only after revocation dequarantines the
// span. Cross-thread releases go through the owner's remote queue.
func (h *Heap) Release(th *kernel.Thread, base, size uint64) error {
	var err error
	asAllocator(th, func() {
		ch, l, ok := h.find(base)
		if !ok {
			err = ErrBadFree
			return
		}
		var owner *Allocator
		if l != nil {
			owner = l.owner
		} else {
			owner = ch.owner
		}
		mine := h.allocatorOf(th)
		if owner != mine {
			// snmalloc message passing: enqueue on the owner's remote
			// queue; the owner drains at its next allocation.
			owner.remote = append(owner.remote, remoteFree{addr: base, size: size})
			h.stats.RemoteFrees++
			th.Work(40)
			return
		}
		err = owner.release(base, size)
	})
	return err
}

// reclaimSlab removes an emptied slab and recycles its span.
func (a *Allocator) reclaimSlab(ch *chunk, s *slab) {
	ch.slabs[(s.base-ch.res.Base)/SlabSize] = nil
	kept := a.partial[s.class][:0]
	for _, ps := range a.partial[s.class] {
		if ps != s {
			kept = append(kept, ps)
		}
	}
	a.partial[s.class] = kept
	s.inPartial = false
	ch.freeSpans = append(ch.freeSpans, s.base)
	if len(ch.freeSpans) == 1 {
		a.spanChunks = insertByBase(a.spanChunks, ch)
	}
	a.th.Work(120)
}

// drainRemote processes pending cross-thread frees.
func (a *Allocator) drainRemote() {
	for _, rf := range a.remote {
		a.th.Work(25)
		if err := a.release(rf.addr, rf.size); err != nil {
			panic(fmt.Sprintf("alloc: remote free: %v", err))
		}
	}
	a.remote = a.remote[:0]
}

// release is the owner-thread free path.
func (a *Allocator) release(base, size uint64) error {
	h := a.heap
	th := a.th
	th.Work(25)
	ch, l, ok := h.find(base)
	if !ok {
		return ErrBadFree
	}
	switch {
	case l != nil:
		// Large: unmap the whole reservation; the dead reservation is the
		// caller's to quarantine at the mmap level (§6.2). Without mrs the
		// address space is recycled only when the reservation is released,
		// which never aliases: fresh reservations come from the bump.
		delete(h.larges, base)
		if _, _, err := th.Munmap(l.res.Base, l.res.Length); err != nil {
			return err
		}
	case ch.slabAt(base) != nil:
		s := ch.slabAt(base)
		// A misaligned base names no object, so it reads as a double free
		// (Free has already turned interior pointers into ErrWildFree).
		size := ClassSize(s.class)
		i := (base - s.base) / size
		if (base-s.base)%size != 0 || !s.isLive(i) {
			return ErrDoubleFree
		}
		s.setLive(i, false)
		s.used--
		s.free = append(s.free, base)
		if !s.inPartial {
			a.partial[s.class] = append(a.partial[s.class], s)
			s.inPartial = true
		}
		if s.used == 0 && s.next+ClassSize(s.class) > s.base+SlabSize {
			// The slab emptied after being fully carved (no room is left
			// for another object; classes whose size does not divide the
			// slab leave a tail): return its span to the chunk so another
			// size class can reuse it (snmalloc's slab recycling).
			a.reclaimSlab(ch, s)
		}
		// Write the in-band freelist node over the object's first granule
		// (clears any capability there, as snmalloc's write does).
		if err := th.Store(ch.root.WithAddr(base), 0, MinAlloc); err != nil {
			return err
		}
		th.Work(th.P.M.Bus.Access(th.Sim.CoreID(), ch.metaVA(base), th.Agent, true))
	default:
		sz, ok := ch.mediumLive[base]
		if !ok {
			return ErrDoubleFree
		}
		delete(ch.mediumLive, base)
		ch.mediumFree[sz] = append(ch.mediumFree[sz], base)
		if len(ch.mediumFree[sz]) == 1 {
			if a.extentChunks == nil {
				a.extentChunks = make(map[uint64][]*chunk)
			}
			a.extentChunks[sz] = insertByBase(a.extentChunks[sz], ch)
		}
		th.Work(60)
	}
	h.stats.Frees++
	h.stats.LiveBytes -= size
	h.stats.TotalFreed += size
	return nil
}

// RecolorRange bumps the memory color of [base, base+size) to next (§7.3),
// charging color-store traffic at a quarter of data-write cost (colors are
// 4-bit metadata).
func (h *Heap) RecolorRange(th *kernel.Thread, base, size uint64, next uint8) error {
	auth, ok := h.PaintAuth(base)
	if !ok {
		return ErrBadFree
	}
	if !auth.HasPerms(ca.PermRecolor) {
		return ca.ErrPermEscalation
	}
	va := base
	end := base + size
	for va < end {
		pte, _, err := th.P.AS.EnsureMapped(va)
		if err != nil {
			return err
		}
		pageEnd := (va &^ (vm.PageSize - 1)) + vm.PageSize
		n := end
		if n > pageEnd {
			n = pageEnd
		}
		gFirst := int(va%vm.PageSize) / ca.GranuleSize
		gLast := int((n-1)%vm.PageSize) / ca.GranuleSize
		th.P.M.Phys.SetColor(pte.Frame, gFirst, gLast-gFirst+1, next)
		va = n
	}
	th.Work(th.P.M.Bus.AccessRange(th.Sim.CoreID(), base, size/4+1, th.Agent, true))
	return nil
}

// Chunks returns the number of chunks owned by the heap.
func (h *Heap) Chunks() int { return len(h.chunks) }
