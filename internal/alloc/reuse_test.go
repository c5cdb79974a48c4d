package alloc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ca"
	"repro/internal/kernel"
)

// The reference for slab refills and medium reuse: the heap-wide scans the
// allocator made before each Allocator kept its own chunk lists. They walk
// every chunk of the heap in base order and took the first one the
// allocator owns that holds what is asked for; these return every such
// chunk, so the reference's choice is the first.

// scanSpanChunks returns a's chunks holding a reclaimed span, in base
// order.
func scanSpanChunks(h *Heap, a *Allocator) []*chunk {
	var out []*chunk
	for _, ch := range h.chunks {
		if ch.owner == a && len(ch.freeSpans) > 0 {
			out = append(out, ch)
		}
	}
	return out
}

// scanExtentChunks returns a's chunks holding a freed medium extent of the
// given size, in base order.
func scanExtentChunks(h *Heap, a *Allocator, size uint64) []*chunk {
	var out []*chunk
	for _, ch := range h.chunks {
		if ch.owner == a && len(ch.mediumFree[size]) > 0 {
			out = append(out, ch)
		}
	}
	return out
}

// scanLookup is Lookup over a linear search of the chunks by their
// reservations, the reference for find's binary search of chunk bases.
func scanLookup(h *Heap, addr uint64) (uint64, uint64, bool) {
	for _, ch := range h.chunks {
		if addr < ch.res.Base || addr >= ch.res.Base+ch.res.Length {
			continue
		}
		if s := ch.slabAt(addr); s != nil {
			size := ClassSize(s.class)
			if i := (addr - s.base) / size; s.isLive(i) {
				return s.base + i*size, size, true
			}
			return 0, 0, false
		}
		for base, size := range ch.mediumLive {
			if addr >= base && addr < base+size {
				return base, size, true
			}
		}
		return 0, 0, false
	}
	if l, ok := h.larges[addr]; ok {
		return l.res.Base, l.size, true
	}
	return 0, 0, false
}

// reuseObj is a live allocation of the differential's model.
type reuseObj struct {
	c     ca.Capability
	owner int // index of the allocating thread
}

// reuseDriver runs the differential: threads take turns, each performing
// one random operation on its own allocator per turn, and every turn is
// checked against the reference scans.
type reuseDriver struct {
	t       *testing.T
	h       *Heap
	rng     *rand.Rand
	threads []*kernel.Thread
	live    []reuseObj
	// pending holds, per owner, objects freed by another thread: they stay
	// live in the heap until the owner drains its remote queue.
	pending [][]reuseObj
	// contested counts reuse choices made while two or more chunks of the
	// allocator held a candidate, so the lowest-base rule decided.
	spanChoices, spanContested     int
	extentChoices, extentContested int
}

var (
	reuseSmall  = []uint64{64, 3072, 4096, 4096}
	reuseMedium = []uint64{8 << 10, 12 << 10, 16 << 10, 64 << 10}
)

// step performs one operation as thread i. Growth and shrink phases
// alternate, so slabs fill and then empty and are reclaimed.
func (d *reuseDriver) step(i, n int) {
	freeP := 20
	if (n/1000)%2 == 1 {
		freeP = 95
	}
	switch r := d.rng.Intn(100); {
	case r < freeP && len(d.live) > 0:
		d.free(i, d.rng.Intn(len(d.live)))
	case r < freeP+(100-freeP)/4:
		d.allocMedium(i, reuseMedium[d.rng.Intn(len(reuseMedium))])
	case r < freeP+(100-freeP)/4+1:
		d.allocLarge(i)
	default:
		d.allocSmall(i, reuseSmall[d.rng.Intn(len(reuseSmall))])
	}
}

// drain empties thread i's remote queue, as Alloc does first, so that the
// choice predicted next is made from the state Alloc will see.
func (d *reuseDriver) drain(i int) *Allocator {
	th := d.threads[i]
	a := d.h.AllocatorFor(th)
	asAllocator(th, a.drainRemote)
	d.pending[i] = d.pending[i][:0]
	return a
}

func (d *reuseDriver) record(i int, c ca.Capability) {
	d.live = append(d.live, reuseObj{c: c, owner: i})
}

func (d *reuseDriver) allocSmall(i int, size uint64) {
	a := d.drain(i)
	cl := SizeToClass(size)
	refill := !slices.ContainsFunc(a.partial[cl], (*slab).hasSpace)
	var want *chunk
	var span uint64
	if cands := scanSpanChunks(d.h, a); refill && len(cands) > 0 {
		want = cands[0]
		span = want.freeSpans[len(want.freeSpans)-1]
		d.spanChoices++
		if len(cands) > 1 {
			d.spanContested++
		}
	}
	c, err := d.h.Alloc(d.threads[i], size)
	if err != nil {
		d.t.Fatal(err)
	}
	if want != nil {
		if c.Base() < span || c.Base() >= span+SlabSize {
			d.t.Fatalf("thread %d: class %d refill at %#x, reference reuses span %#x of chunk %#x",
				i, cl, c.Base(), span, want.res.Base)
		}
	} else if refill {
		ch, _, _ := d.h.find(c.Base())
		if ch != a.cur {
			d.t.Fatalf("thread %d: class %d refill at %#x, reference carves from chunk %#x",
				i, cl, c.Base(), a.cur.res.Base)
		}
	}
	d.record(i, c)
}

func (d *reuseDriver) allocMedium(i int, size uint64) {
	a := d.drain(i)
	rounded := RoundAlloc(size)
	var want *chunk
	var extent uint64
	if cands := scanExtentChunks(d.h, a, rounded); len(cands) > 0 {
		want = cands[0]
		extent = want.mediumFree[rounded][len(want.mediumFree[rounded])-1]
		d.extentChoices++
		if len(cands) > 1 {
			d.extentContested++
		}
	}
	c, err := d.h.Alloc(d.threads[i], size)
	if err != nil {
		d.t.Fatal(err)
	}
	if want != nil && c.Base() != extent {
		d.t.Fatalf("thread %d: %d-byte medium at %#x, reference reuses %#x of chunk %#x",
			i, rounded, c.Base(), extent, want.res.Base)
	}
	if ch, _, _ := d.h.find(c.Base()); want == nil && ch != a.cur {
		d.t.Fatalf("thread %d: %d-byte medium at %#x, reference carves from chunk %#x",
			i, rounded, c.Base(), a.cur.res.Base)
	}
	d.record(i, c)
}

func (d *reuseDriver) allocLarge(i int) {
	d.drain(i)
	c, err := d.h.Alloc(d.threads[i], MaxMedium+1)
	if err != nil {
		d.t.Fatal(err)
	}
	d.record(i, c)
}

// free releases live object k from thread i: a remote free when another
// thread allocated it.
func (d *reuseDriver) free(i, k int) {
	o := d.live[k]
	d.live[k] = d.live[len(d.live)-1]
	d.live = d.live[:len(d.live)-1]
	if err := d.h.Free(d.threads[i], o.c); err != nil {
		d.t.Fatalf("thread %d: free of %#x: %v", i, o.c.Base(), err)
	}
	if o.owner != i {
		d.pending[o.owner] = append(d.pending[o.owner], o)
	}
}

// checkLookups compares Lookup with the linear reference and with the
// model at every live and pending object's base, interior and end, and at
// random addresses across the heap's chunks.
func (d *reuseDriver) checkLookups() {
	probe := func(addr uint64) {
		gb, gs, gok := d.h.Lookup(addr)
		wb, ws, wok := scanLookup(d.h, addr)
		if gb != wb || gs != ws || gok != wok {
			d.t.Fatalf("Lookup(%#x) = (%#x, %d, %v), linear reference (%#x, %d, %v)",
				addr, gb, gs, gok, wb, ws, wok)
		}
	}
	check := func(o reuseObj) {
		b, s, ok := d.h.Lookup(o.c.Base())
		if !ok || b != o.c.Base() || s != o.c.Len() {
			d.t.Fatalf("Lookup(%#x) = (%#x, %d, %v), want the live object of %d bytes",
				o.c.Base(), b, s, ok, o.c.Len())
		}
		for _, addr := range []uint64{o.c.Base(), o.c.Base() + o.c.Len()/2, o.c.Top() - 1, o.c.Top()} {
			probe(addr)
		}
	}
	for _, o := range d.live {
		check(o)
	}
	for _, ps := range d.pending {
		for _, o := range ps {
			check(o)
		}
	}
	for _, ch := range d.h.chunks {
		probe(ch.res.Base - 1)
		probe(ch.res.Base + uint64(d.rng.Int63n(int64(chunkSize))))
		probe(ch.res.Base + chunkSize)
	}
}

// TestReuseMatchesHeapWideScan is the differential for the allocators'
// own chunk lists: four threads, freeing each other's objects, run through
// interleaved small, medium and large allocations and frees, and every
// slab refill must take the span, and every medium allocation the extent,
// that the heap-wide scan picks, while Lookup agrees with a linear search
// of the chunks and with the model of what is live.
func TestReuseMatchesHeapWideScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const threads, steps = 4, 5000
			m := kernel.NewMachine(kernel.DefaultMachineConfig())
			p := m.NewProcess(1)
			d := &reuseDriver{
				t:       t,
				h:       NewHeap(p),
				rng:     rand.New(rand.NewSource(seed)),
				pending: make([][]reuseObj, threads),
			}
			turn := m.Eng.NewEvent()
			next, n := 0, 0
			for i := 0; i < threads; i++ {
				d.threads = append(d.threads, p.Spawn(fmt.Sprintf("t%d", i), []int{3}, func(th *kernel.Thread) {
					for {
						turn.WaitUntil(th.Sim, func() bool { return n == steps || next == i })
						if n == steps || t.Failed() {
							return
						}
						d.step(i, n)
						if n%50 == 0 {
							d.checkLookups()
						}
						n++
						next = d.rng.Intn(threads)
						turn.Broadcast(th.Sim)
					}
				}))
			}
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if t.Failed() {
				return
			}
			if d.h.Stats().RemoteFrees == 0 || d.spanContested == 0 || d.extentContested == 0 {
				t.Fatalf("remote frees %d, contested span choices %d of %d, contested extent choices %d of %d: the run must exercise all three",
					d.h.Stats().RemoteFrees, d.spanContested, d.spanChoices, d.extentContested, d.extentChoices)
			}
			t.Logf("remote frees %d, span choices %d (%d contested), extent choices %d (%d contested), %d chunks",
				d.h.Stats().RemoteFrees, d.spanChoices, d.spanContested, d.extentChoices, d.extentContested, d.h.Chunks())
		})
	}
}
