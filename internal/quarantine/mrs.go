// Package quarantine implements the mrs malloc-revocation shim (§5): it
// interposes on free, painting the revocation bitmap and holding freed
// address space in quarantine until a revocation epoch proves no stale
// capabilities remain, then returns the storage to the allocator.
//
// Policy follows the paper's configuration: an allocation request made
// while quarantine exceeds one quarter of the total heap (equivalently one
// third of the allocated heap) triggers revocation, unless quarantine is
// under the minimum (8 MiB at full scale; experiments scale it with their
// heaps). The quarantine list is double-buffered so frees proceed during
// revocation; if the second buffer also exceeds policy, allocation blocks
// until the in-flight epoch completes (§5.3, §7.2).
package quarantine

import (
	"errors"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/bus"
	"repro/internal/ca"
	"repro/internal/kernel"
	"repro/internal/revoke"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ErrQuarantinedDoubleFree is returned when an object already in
// quarantine is freed again.
var ErrQuarantinedDoubleFree = errors.New("quarantine: double free of quarantined object")

// Policy is the revocation trigger policy.
type Policy struct {
	// HeapFraction is the quarantine share of the total heap that triggers
	// revocation (the paper uses 1/4).
	HeapFraction float64
	// MinBytes suppresses revocation while quarantine is small (the paper
	// uses 8 MiB; scaled experiments scale it).
	MinBytes uint64
	// BlockFactor blocks allocation outright when quarantine exceeds
	// BlockFactor times the trigger limit (mrs blocks at 2×).
	BlockFactor float64
}

// DefaultPolicy returns the paper's policy at full scale.
func DefaultPolicy() Policy {
	return Policy{HeapFraction: 0.25, MinBytes: 8 << 20, BlockFactor: 2}
}

// Stats aggregates shim activity.
type Stats struct {
	// QuarantinedBytes is the current quarantine volume (both buffers).
	QuarantinedBytes uint64
	// PeakQuarantinedBytes is its high-water mark.
	PeakQuarantinedBytes uint64
	// TotalQuarantined accumulates all bytes ever quarantined ("Sum
	// Freed" in Table 2).
	TotalQuarantined uint64
	// Triggers counts revocations requested by policy.
	Triggers uint64
	// Blocks counts allocations that had to wait for an epoch; BlockCycles
	// is the total virtual time spent blocked.
	Blocks      uint64
	BlockCycles uint64
	// LiveAtTriggerSum/Count sample the allocated heap at each trigger
	// (Table 2's "Mean Alloc").
	LiveAtTriggerSum   uint64
	LiveAtTriggerCount uint64
	// QuarantineAtTriggerSum samples quarantine volume at each trigger.
	QuarantineAtTriggerSum uint64
}

type entry struct{ base, size uint64 }

// chunkEntries is the number of entries in one chunk of a quarantine list:
// with the link to the next chunk, a chunk is 16 KiB, one Go size class.
const chunkEntries = 1023

// chunk is one fixed-size piece of a quarantine list. A drain returns its
// buffer's chunks to the shim's free list, which the next frees take them
// from, so a list that has reached its size allocates nothing more.
type chunk struct {
	entries [chunkEntries]entry
	next    *chunk
}

// buffer is a quarantine list: a chain of chunks from head to tail, every
// chunk but the tail full.
type buffer struct {
	head, tail *chunk
	count      int // entries in the list
	bytes      uint64
	// target is the epoch counter value at which the buffer may drain.
	target uint64
}

// push appends e to b, taking a chunk from the free list (or the heap, if
// the list is empty) when the tail is full.
func (b *buffer) push(e entry, free **chunk) {
	i := b.count % chunkEntries
	if i == 0 {
		c := *free
		if c != nil {
			*free, c.next = c.next, nil
		} else {
			c = new(chunk)
		}
		if b.tail == nil {
			b.head = c
		} else {
			b.tail.next = c
		}
		b.tail = c
	}
	b.tail.entries[i] = e
	b.count++
}

// each calls fn on b's entries in the order they were pushed.
func (b *buffer) each(fn func(e entry)) {
	for c := b.head; c != nil; c = c.next {
		n := chunkEntries
		if c == b.tail {
			n = (b.count-1)%chunkEntries + 1
		}
		for _, e := range c.entries[:n] {
			fn(e)
		}
	}
}

// Shim is one process's mrs instance.
type Shim struct {
	H   *alloc.Heap
	S   *revoke.Service
	pol Policy

	cur      buffer  // accumulating frees
	inflight *buffer // awaiting the in-flight (or a future) epoch
	free     *chunk  // drained chunks, linked through next

	// drainObs, when non-nil, observes the start of every quarantine
	// drain with the draining buffer's clearance target and the spans
	// about to be released (internal/oracle asserts the §2.2.3
	// epoch-parity reuse rule there and retires the spans from its
	// paint snapshot).
	drainObs func(th *kernel.Thread, target uint64, spans []Span)

	stats Stats
}

// New creates a shim over heap h using revocation service s.
func New(h *alloc.Heap, s *revoke.Service, pol Policy) *Shim {
	return &Shim{H: h, S: s, pol: pol}
}

// Stats returns a snapshot of shim counters.
func (q *Shim) Stats() Stats {
	st := q.stats
	st.QuarantinedBytes = q.cur.bytes
	if q.inflight != nil {
		st.QuarantinedBytes += q.inflight.bytes
	}
	return st
}

// Policy returns the shim's policy.
func (q *Shim) Policy() Policy { return q.pol }

// Malloc allocates through the shim: it opportunistically drains cleared
// quarantine, applies the trigger policy, and blocks if quarantine has run
// far past it.
func (q *Shim) Malloc(th *kernel.Thread, size uint64) (ca.Capability, error) {
	tl := th.P.M.Telem
	tl.Enter(th.Sim, telemetry.CompQuarantine)
	q.drainIfClear(th)
	limit := q.limit()
	if q.cur.bytes >= q.pol.MinBytes && float64(q.cur.bytes) > limit {
		if q.inflight == nil {
			q.trigger(th)
		} else if float64(q.cur.bytes) > limit*q.pol.BlockFactor {
			// Both buffers over policy: block until the in-flight epoch
			// clears, drain it, and trigger for our buffer.
			q.stats.Blocks++
			t0 := th.Sim.Now()
			tr := th.P.M.Trace
			target := q.inflight.target
			tr.Begin(t0, th.Sim.CoreID(), bus.AgentAlloc,
				trace.KindQuarBlock, th.P.Epoch(), target, 0)
			th.P.WaitEpochAtLeast(th, target)
			tr.End(th.Sim.Now(), th.Sim.CoreID(), bus.AgentAlloc,
				trace.KindQuarBlock, th.P.Epoch(), target, 0)
			q.stats.BlockCycles += th.Sim.Now() - t0
			tl.Observe(telemetry.StdQuarBlockCycles, float64(th.Sim.Now()-t0))
			q.drainIfClear(th)
			if q.inflight == nil {
				q.trigger(th)
			}
		}
	}
	tl.Exit(th.Sim)
	return q.H.Alloc(th, size)
}

// limit returns the trigger threshold in bytes: HeapFraction of the total
// heap (allocated + quarantined; quarantined objects are still counted as
// allocated by the heap, so LiveBytes is the total).
func (q *Shim) limit() float64 {
	return q.pol.HeapFraction * float64(q.H.LiveBytes())
}

// trigger hands the accumulating buffer to a new revocation request.
func (q *Shim) trigger(th *kernel.Thread) {
	e := q.S.RequestRevocation(th)
	buf := q.cur
	buf.target = kernel.EpochClearTarget(e)
	th.P.M.Trace.Instant(th.Sim.Now(), th.Sim.CoreID(), bus.AgentAlloc,
		trace.KindQuarTrigger, e, buf.bytes, buf.target)
	q.inflight = &buf
	q.cur = buffer{}
	q.stats.Triggers++
	q.stats.LiveAtTriggerSum += q.H.LiveBytes()
	q.stats.LiveAtTriggerCount++
	q.stats.QuarantineAtTriggerSum += buf.bytes
}

// Span is one quarantined object's address range, as reported to the
// drain observer.
type Span struct{ Base, Size uint64 }

// SetDrainObserver installs a callback invoked at the start of every
// quarantine drain, before any storage is returned to the allocator.
func (q *Shim) SetDrainObserver(fn func(th *kernel.Thread, target uint64, spans []Span)) {
	q.drainObs = fn
}

// drainIfClear releases the in-flight buffer if its epoch has passed.
func (q *Shim) drainIfClear(th *kernel.Thread) {
	if q.inflight == nil || th.P.Epoch() < q.inflight.target {
		return
	}
	buf := q.inflight
	if q.drainObs != nil {
		spans := make([]Span, 0, buf.count)
		buf.each(func(e entry) { spans = append(spans, Span{e.base, e.size}) })
		q.drainObs(th, buf.target, spans)
	}
	q.inflight = nil
	th.P.M.Trace.Instant(th.Sim.Now(), th.Sim.CoreID(), bus.AgentAlloc,
		trace.KindQuarFlush, th.P.Epoch(), buf.bytes, uint64(buf.count))
	buf.each(func(e entry) {
		auth, ok := q.H.PaintAuth(e.base)
		if !ok {
			panic(fmt.Sprintf("quarantine: lost paint authority for %#x", e.base))
		}
		if err := th.UnpaintShadow(auth, e.base, e.size); err != nil {
			panic(fmt.Sprintf("quarantine: unpaint: %v", err))
		}
		if err := q.H.Release(th, e.base, e.size); err != nil {
			panic(fmt.Sprintf("quarantine: release: %v", err))
		}
	})
	// Every entry is released: the chunks join the free list.
	if buf.tail != nil {
		buf.tail.next, q.free = q.free, buf.head
	}
}

// Free validates the capability against the heap, paints its span in the
// revocation bitmap, and quarantines the address space. The object remains
// readable and writable through stale capabilities until a revocation
// epoch completes — use-after-free inside the quarantine window accesses
// the old object, never a reallocated one (§2.2.2).
func (q *Shim) Free(th *kernel.Thread, c ca.Capability) error {
	th.P.M.Telem.Enter(th.Sim, telemetry.CompQuarantine)
	defer th.P.M.Telem.Exit(th.Sim)
	if !c.Tag() {
		return fmt.Errorf("%w: untagged capability", alloc.ErrBadFree)
	}
	base, size, ok := q.H.Lookup(c.Base())
	if !ok {
		return alloc.ErrDoubleFree
	}
	if base != c.Base() {
		return alloc.ErrWildFree
	}
	if th.P.Shadow.Test(base) {
		return ErrQuarantinedDoubleFree
	}
	auth, ok := q.H.PaintAuth(base)
	if !ok {
		return alloc.ErrBadFree
	}
	if err := th.PaintShadow(auth, base, size); err != nil {
		return err
	}
	th.Work(20) // quarantine list append (out-of-band)
	q.cur.push(entry{base, size}, &q.free)
	q.cur.bytes += size
	q.stats.TotalQuarantined += size
	if tot := q.cur.bytes + q.inflightBytes(); tot > q.stats.PeakQuarantinedBytes {
		q.stats.PeakQuarantinedBytes = tot
	}
	return nil
}

func (q *Shim) inflightBytes() uint64 {
	if q.inflight == nil {
		return 0
	}
	return q.inflight.bytes
}

// Flush forces revocation until all quarantine drains. Used at orderly
// shutdown and by tests.
func (q *Shim) Flush(th *kernel.Thread) {
	th.P.M.Telem.Enter(th.Sim, telemetry.CompQuarantine)
	defer th.P.M.Telem.Exit(th.Sim)
	for q.inflight != nil || q.cur.bytes > 0 {
		if q.inflight == nil {
			q.trigger(th)
		}
		th.P.WaitEpochAtLeast(th, q.inflight.target)
		q.drainIfClear(th)
	}
}
