// Package trace is the structured event-tracing layer for the simulated
// stack. Every layer — the revokers, the kernel's stop-the-world
// rendezvous and trap paths, the MMU's TLB shootdowns, the quarantine
// shim, and the allocator — emits typed spans and instant events keyed by
// simulated cycle, core, and traffic agent, into a fixed-capacity ring
// buffer that keeps the most recent events of a run.
//
// Tracing is off by default: a nil *Tracer is a valid no-op tracer, so
// emit sites are a single pointer test on the hot path and a disabled run
// pays essentially nothing. Events travel between processes (telemetry
// snapshots, manifests, dist results) as JSON with their enums named.
// The exporters render retained events as CSV for ad-hoc analysis
// (export.go) and as Chrome trace_event JSON for Perfetto /
// chrome://tracing (timeline.go) — one writer for a single run and for a
// whole campaign.
package trace

import (
	"encoding/json"
	"fmt"

	"repro/internal/bus"
)

// Kind is the typed identity of an event. Span kinds are emitted as
// Begin/End pairs; instant kinds as single Instant events.
type Kind uint8

// Event kinds. The Arg/Arg2 meaning is per kind, documented here and
// echoed by the exporters.
const (
	// KindEpoch spans one whole revocation epoch, Begin after the opening
	// epoch-counter advance and End after the closing one. Arg on End is
	// the number of capabilities revoked; Arg2 the pages visited.
	KindEpoch Kind = iota
	// KindSTW spans a stop-the-world window, from the initiator starting
	// the rendezvous to the world resuming. Arg is unused.
	KindSTW
	// KindSweep spans one worker's sweep over its slice of the page list.
	// Arg is the worker index (0 = the service thread), Arg2 the number of
	// pages in the slice.
	KindSweep
	// KindFault is an instant event for one capability load-generation
	// fault (the self-healing load barrier, §4.3). Arg is the faulting
	// virtual address; Arg2 is 1 if the fault revisited a page the
	// background sweep had not yet reached (the expensive path).
	KindFault
	// KindShootdown is an instant event for one TLB shootdown broadcast
	// (all cores). Arg is unused.
	KindShootdown
	// KindQuarTrigger is an instant event for the quarantine shim deciding
	// to request a revocation pass. Arg is the quarantined byte count at
	// the trigger; Arg2 is the epoch the pass must reach before reuse.
	KindQuarTrigger
	// KindQuarBlock spans an allocation blocked on an in-flight epoch
	// (the shim over its block factor, §2.2.3). Arg is the epoch waited
	// for.
	KindQuarBlock
	// KindQuarFlush is an instant event for a quarantine buffer handed
	// back to the allocator. Arg is the bytes released; Arg2 the number of
	// quarantined allocations released.
	KindQuarFlush
	// KindPaint is an instant event for painting a freed region in the
	// revocation bitmap. Arg is the base address, Arg2 the length.
	KindPaint
	// KindUnpaint is an instant event for clearing paint on reuse. Arg is
	// the base address, Arg2 the length.
	KindUnpaint
	// KindChunk is an instant event for the allocator reserving a fresh
	// chunk from the address space. Arg is the chunk base, Arg2 its size.
	KindChunk
	// KindInject is an instant event for one injected fault
	// (internal/fault). Arg is the fault class ordinal, Arg2 a
	// class-specific detail (target core, virtual address, delay cycles).
	KindInject
	// KindRecovery is an instant event for one abort-and-retry recovery
	// action by the revoker (internal/revoke). Arg is the recovery action
	// ordinal, Arg2 a detail (pages reclaimed, retry number, delay).
	KindRecovery
	numKinds
)

// String names the kind as it appears in exports.
func (k Kind) String() string {
	switch k {
	case KindEpoch:
		return "epoch"
	case KindSTW:
		return "stop-the-world"
	case KindSweep:
		return "sweep"
	case KindFault:
		return "load-barrier-fault"
	case KindShootdown:
		return "tlb-shootdown"
	case KindQuarTrigger:
		return "quarantine-trigger"
	case KindQuarBlock:
		return "quarantine-block"
	case KindQuarFlush:
		return "quarantine-flush"
	case KindPaint:
		return "paint"
	case KindUnpaint:
		return "unpaint"
	case KindChunk:
		return "chunk-reserve"
	case KindInject:
		return "fault-inject"
	case KindRecovery:
		return "recovery"
	}
	return "unknown"
}

// Phase distinguishes span boundaries from instant events.
type Phase uint8

// Event phases.
const (
	PhaseBegin Phase = iota
	PhaseEnd
	PhaseInstant
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseBegin:
		return "B"
	case PhaseEnd:
		return "E"
	}
	return "i"
}

// Event is one trace record. Events are fixed-size and value-typed so the
// ring buffer is a flat allocation with no per-event garbage.
type Event struct {
	// Cycle is the emitting thread's virtual clock.
	Cycle uint64
	// Arg and Arg2 are kind-specific payloads (fault VA, page counts, …).
	Arg, Arg2 uint64
	// Epoch is the process revocation-epoch counter at emission.
	Epoch uint64
	// Core is the emitting core, or -1 for machine-wide events.
	Core int16
	// Agent is the traffic-attribution agent (bus.Agent).
	Agent uint8
	// Kind and Phase type the event.
	Kind  Kind
	Phase Phase
}

// eventJSON is an Event's wire form: the agent, kind and phase by their
// export names, a zero epoch or arg omitted.
type eventJSON struct {
	Cycle uint64 `json:"cycle"`
	Core  int    `json:"core"`
	Agent string `json:"agent,omitempty"`
	Kind  string `json:"kind"`
	Phase string `json:"phase"`
	Epoch uint64 `json:"epoch,omitempty"`
	Arg   uint64 `json:"arg,omitempty"`
	Arg2  uint64 `json:"arg2,omitempty"`
}

// MarshalJSON encodes the event in its wire form, e.g.
// {"cycle":2730,"core":3,"agent":"alloc","kind":"chunk-reserve","phase":"i","arg":4294967296,"arg2":1048576}.
func (ev Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(eventJSON{
		Cycle: ev.Cycle, Core: int(ev.Core), Agent: bus.Agent(ev.Agent).String(),
		Kind: ev.Kind.String(), Phase: ev.Phase.String(),
		Epoch: ev.Epoch, Arg: ev.Arg, Arg2: ev.Arg2,
	})
}

// UnmarshalJSON decodes the wire form. An unknown agent, kind or phase
// name is an error.
func (ev *Event) UnmarshalJSON(b []byte) error {
	var w eventJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	agent, ok := byName(w.Agent, uint8(bus.AgentKernel)+1, func(a uint8) string { return bus.Agent(a).String() })
	if !ok {
		return fmt.Errorf("trace: unknown agent %q", w.Agent)
	}
	kind, ok := byName(w.Kind, numKinds, Kind.String)
	if !ok {
		return fmt.Errorf("trace: unknown kind %q", w.Kind)
	}
	phase, ok := byName(w.Phase, PhaseInstant+1, Phase.String)
	if !ok {
		return fmt.Errorf("trace: unknown phase %q", w.Phase)
	}
	*ev = Event{Cycle: w.Cycle, Arg: w.Arg, Arg2: w.Arg2, Epoch: w.Epoch,
		Core: int16(w.Core), Agent: agent, Kind: kind, Phase: phase}
	return nil
}

// byName finds the value below n whose name is s.
func byName[T ~uint8](s string, n T, name func(T) string) (T, bool) {
	for v := T(0); v < n; v++ {
		if name(v) == s {
			return v, true
		}
	}
	return 0, false
}

// Tracer is a fixed-capacity ring of Events. The zero of *Tracer (nil) is
// a valid, always-disabled tracer: every method is safe to call on it and
// costs one branch, so emit sites never need their own guards.
//
// The simulator runs one thread at a time, so Tracer needs no locking.
type Tracer struct {
	buf  []Event
	mask uint64
	// head counts every event ever emitted; when it exceeds len(buf) the
	// oldest events have been overwritten.
	head uint64
}

// New returns a Tracer keeping the most recent capacity events (rounded up
// to a power of two, minimum 1024).
func New(capacity int) *Tracer {
	n := 1024
	for n < capacity {
		n <<= 1
	}
	return &Tracer{buf: make([]Event, n), mask: uint64(n) - 1}
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records one event. No-op on a nil Tracer.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.buf[t.head&t.mask] = ev
	t.head++
}

// Begin opens a span of the given kind.
func (t *Tracer) Begin(cycle uint64, core int, agent bus.Agent, kind Kind, epoch, arg, arg2 uint64) {
	if t == nil {
		return
	}
	t.Emit(Event{Cycle: cycle, Arg: arg, Arg2: arg2, Epoch: epoch,
		Core: int16(core), Agent: uint8(agent), Kind: kind, Phase: PhaseBegin})
}

// End closes the innermost open span of the given kind on the same core.
func (t *Tracer) End(cycle uint64, core int, agent bus.Agent, kind Kind, epoch, arg, arg2 uint64) {
	if t == nil {
		return
	}
	t.Emit(Event{Cycle: cycle, Arg: arg, Arg2: arg2, Epoch: epoch,
		Core: int16(core), Agent: uint8(agent), Kind: kind, Phase: PhaseEnd})
}

// Instant records a point event.
func (t *Tracer) Instant(cycle uint64, core int, agent bus.Agent, kind Kind, epoch, arg, arg2 uint64) {
	if t == nil {
		return
	}
	t.Emit(Event{Cycle: cycle, Arg: arg, Arg2: arg2, Epoch: epoch,
		Core: int16(core), Agent: uint8(agent), Kind: kind, Phase: PhaseInstant})
}

// Len returns the number of events currently held (≤ capacity).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	if t.head < uint64(len(t.buf)) {
		return int(t.head)
	}
	return len(t.buf)
}

// Dropped returns how many events were overwritten by ring wrap-around.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	if t.head <= uint64(len(t.buf)) {
		return 0
	}
	return t.head - uint64(len(t.buf))
}

// Events returns the retained events in emission order. The slice is
// freshly allocated; the ring keeps recording.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	n := uint64(t.Len())
	out := make([]Event, 0, n)
	for i := t.head - n; i < t.head; i++ {
		out = append(out, t.buf[i&t.mask])
	}
	return out
}

// Reset discards all recorded events, keeping the buffer.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.head = 0
}
