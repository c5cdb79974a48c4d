// Package telemetry is the simulator's observability layer: a
// deterministic cycle profiler, a time-series metrics registry, and (in
// live.go) an introspection HTTP server for long campaigns.
//
// The profiler attributes every simulated cycle to a component stack
// (app, barrier-fault, sweep, shootdown, quarantine, kernel, idle) per
// core. It hangs off sim.Engine's ClockObserver hook, so attribution is
// exact by construction: for each core, attributed busy + idle cycles sum
// to that core's clock, and Snapshot.CheckConservation verifies it.
// Instrumentation never advances virtual time — enabling telemetry cannot
// change a run's results.
//
// The sim engine delivers a running thread's Busy cycles only at
// scheduling points; SetBase/Enter/Exit call Engine.FlushClock first so
// cycles ticked before an attribution change land under the old frame,
// which keeps totals, per-component attribution and conservation exact.
//
// Like trace.Tracer, a nil *Telemetry is a valid disabled instance: every
// method no-ops, so emit sites pay one branch when telemetry is off.
package telemetry

import (
	"fmt"

	"repro/internal/sim"
)

// Component identifies where a simulated cycle went. Components form the
// frames of profile stacks: each thread has a base component and emit
// sites push nested frames (Enter/Exit) around attributable work.
type Component uint8

// Profile stack components.
const (
	// CompApp is application compute and memory access (thread base).
	CompApp Component = iota
	// CompRevoker is the base of revocation service threads; epoch work
	// shows up as nested kernel/sweep/shootdown frames beneath it.
	CompRevoker
	// CompAlloc is allocator metadata work (chunk carving, free lists).
	CompAlloc
	// CompQuarantine is the mrs shim: painting, quarantine bookkeeping,
	// and allocation blocks waiting on a revocation pass.
	CompQuarantine
	// CompKernel is syscalls, traps, and stop-the-world rendezvous.
	CompKernel
	// CompBarrierFault is load-barrier fault handling (§4.3): the trap
	// plus the visit the faulting thread performs under Reloaded.
	CompBarrierFault
	// CompSweep is capability sweep visits (background or in-fault).
	CompSweep
	// CompShootdown is TLB shootdown broadcast and verification.
	CompShootdown

	numComponents
)

func (c Component) String() string {
	switch c {
	case CompApp:
		return "app"
	case CompRevoker:
		return "revoker"
	case CompAlloc:
		return "alloc"
	case CompQuarantine:
		return "quarantine"
	case CompKernel:
		return "kernel"
	case CompBarrierFault:
		return "barrier-fault"
	case CompSweep:
		return "sweep"
	case CompShootdown:
		return "shootdown"
	}
	return fmt.Sprintf("component(%d)", uint8(c))
}

// idleFrame is the pseudo-stack used for unattributed core-idle cycles in
// folded and pprof exports.
const idleFrame = "idle"

// Options configures a Telemetry instance.
type Options struct {
	// SampleEvery is the simulated-cycle interval between time-series
	// rows. Zero selects DefaultSampleEvery.
	SampleEvery uint64 `json:"sample_every,omitempty"`
	// MaxRows bounds the retained time series; when exceeded the series
	// is downsampled 2:1 and the interval doubled (deterministically).
	// Zero selects DefaultMaxRows.
	MaxRows int `json:"max_rows,omitempty"`
	// TraceEvents, when positive, arms a per-job trace.Tracer ring of
	// that capacity; the retained events are exported into the job's
	// Snapshot (Snapshot.Trace) so traces survive manifest resume and
	// distributed shipping. Zero leaves tracing off.
	TraceEvents int `json:"trace_events,omitempty"`
}

// Defaults for Options.
const (
	DefaultSampleEvery = 1_000_000 // 0.4 ms of simulated time at 2.5 GHz
	DefaultMaxRows     = 4096
)

func (o Options) withDefaults() Options {
	if o.SampleEvery == 0 {
		o.SampleEvery = DefaultSampleEvery
	}
	if o.MaxRows <= 0 {
		o.MaxRows = DefaultMaxRows
	}
	return o
}

// pnode is one frame-trie node. The trie is rooted per base component;
// children are keyed by component, cycles are accumulated per core.
type pnode struct {
	comp   Component
	parent int32
	child  [numComponents]int32 // -1 = absent
	cycles []uint64             // indexed by core, grown on demand
}

// tstate is a thread's profiler state: its current trie position.
type tstate struct {
	node  int32
	depth int
}

// Telemetry is a per-run recorder: profiler plus metrics registry. Create
// with New, wire with Bind before sim.Engine.Run, then call Snapshot
// after the run. All simulated-side methods are nil-safe and run on the
// engine's serialized schedule, so no locking is needed.
type Telemetry struct {
	opt Options
	eng *sim.Engine

	nodes     []pnode
	rootChild [numComponents]int32
	threads   []*tstate   // by sim thread id (dense from 0); nil until first use
	base      []Component // by sim thread id; the zero value is CompApp

	coreClock []uint64 // per-core clock rebuilt from observed deltas
	idle      []uint64 // per-core unattributed (idle) cycles
	wall      uint64   // max over coreClock

	reg        *registry
	nextSample uint64
}

// New creates an enabled recorder.
func New(opt Options) *Telemetry {
	t := &Telemetry{opt: opt.withDefaults()}
	for i := range t.rootChild {
		t.rootChild[i] = -1
	}
	t.reg = newRegistry()
	t.nextSample = t.opt.SampleEvery
	return t
}

// Bind attaches the recorder to an engine: it becomes the engine's clock
// observer and reads authoritative core clocks at snapshot time.
func (t *Telemetry) Bind(eng *sim.Engine) {
	if t == nil {
		return
	}
	t.eng = eng
	eng.SetClockObserver(t)
}

// node returns the trie position for thread id, creating the base frame
// on first sight.
func (t *Telemetry) state(id int) *tstate {
	if id >= len(t.threads) {
		t.threads = append(t.threads, make([]*tstate, id+1-len(t.threads))...)
	}
	ts := t.threads[id]
	if ts == nil {
		base := CompApp
		if id < len(t.base) {
			base = t.base[id]
		}
		ts = &tstate{node: t.childOf(-1, base), depth: 1}
		t.threads[id] = ts
	}
	return ts
}

// childOf interns the child frame of parent (or a root frame if parent is
// -1) for component c. The child link is written by index after the
// append: appending to t.nodes may move the backing array, so a pointer
// taken before it would update the stale copy.
func (t *Telemetry) childOf(parent int32, c Component) int32 {
	if parent < 0 {
		if idx := t.rootChild[c]; idx >= 0 {
			return idx
		}
	} else if idx := t.nodes[parent].child[c]; idx >= 0 {
		return idx
	}
	n := pnode{comp: c, parent: parent}
	for i := range n.child {
		n.child[i] = -1
	}
	t.nodes = append(t.nodes, n)
	idx := int32(len(t.nodes) - 1)
	if parent < 0 {
		t.rootChild[c] = idx
	} else {
		t.nodes[parent].child[c] = idx
	}
	return idx
}

// SetBase declares the thread's bottom stack frame (default CompApp).
// Call before the thread first ticks — typically right after Spawn.
func (t *Telemetry) SetBase(th *sim.Thread, c Component) {
	if t == nil {
		return
	}
	t.eng.FlushClock()
	id := th.ID()
	if id >= len(t.base) {
		t.base = append(t.base, make([]Component, id+1-len(t.base))...)
	}
	t.base[id] = c
	if id < len(t.threads) {
		if ts := t.threads[id]; ts != nil && ts.depth == 1 {
			ts.node = t.childOf(-1, c)
		}
	}
}

// Enter pushes a component frame on the thread's stack. Cycles ticked
// until the matching Exit are attributed to the nested stack. Entering
// the component already on top is a no-op level (re-entered frames merge)
// but must still be balanced with Exit.
func (t *Telemetry) Enter(th *sim.Thread, c Component) {
	if t == nil {
		return
	}
	t.eng.FlushClock()
	ts := t.state(th.ID())
	ts.node = t.childOf(ts.node, c)
	ts.depth++
}

// Exit pops the frame pushed by the matching Enter.
func (t *Telemetry) Exit(th *sim.Thread) {
	if t == nil {
		return
	}
	t.eng.FlushClock()
	ts := t.state(th.ID())
	if ts.depth <= 1 {
		panic("telemetry: Exit without matching Enter")
	}
	ts.node = t.nodes[ts.node].parent
	if ts.node < 0 {
		panic("telemetry: frame stack underflow")
	}
	ts.depth--
}

// Busy implements sim.ClockObserver: cycles cycles of thread work on core.
func (t *Telemetry) Busy(core, thread int, cycles uint64) {
	ts := t.state(thread)
	n := &t.nodes[ts.node]
	for len(n.cycles) <= core {
		n.cycles = append(n.cycles, 0)
	}
	n.cycles[core] += cycles
	t.advance(core, cycles)
}

// Idle implements sim.ClockObserver: the core idled for cycles.
func (t *Telemetry) Idle(core int, cycles uint64) {
	for len(t.idle) <= core {
		t.idle = append(t.idle, 0)
	}
	t.idle[core] += cycles
	t.advance(core, cycles)
}

// advance moves the observed core clock and fires time-series samples at
// every crossed boundary. Sampling depends only on simulated time, so the
// series is identical however the host schedules the run.
func (t *Telemetry) advance(core int, cycles uint64) {
	for len(t.coreClock) <= core {
		t.coreClock = append(t.coreClock, 0)
	}
	t.coreClock[core] += cycles
	if t.coreClock[core] <= t.wall {
		return
	}
	t.wall = t.coreClock[core]
	for t.wall >= t.nextSample {
		t.reg.sample(t.nextSample)
		t.nextSample += t.opt.SampleEvery
		if len(t.reg.rows) >= t.opt.MaxRows {
			t.opt.SampleEvery *= 2
			t.reg.downsample(t.opt.SampleEvery)
			// Re-align the next boundary to the widened interval.
			t.nextSample = (t.wall/t.opt.SampleEvery + 1) * t.opt.SampleEvery
		}
	}
}

// Source binds the value source for a standard counter or gauge series.
// fn is evaluated at each sample boundary and at snapshot; it must be a
// pure read of simulated state. Counters must be monotone.
func (t *Telemetry) Source(id StdID, fn func() float64) {
	if t == nil {
		return
	}
	t.reg.series[id].fn = fn
}

// Observe records a value into a standard histogram series.
func (t *Telemetry) Observe(id StdID, v float64) {
	if t == nil {
		return
	}
	t.reg.series[id].observe(v)
}

// Add increments a standard counter series that has no bound source.
// Counters driven by Add and by Source are mutually exclusive per series.
func (t *Telemetry) Add(id StdID, n float64) {
	if t == nil {
		return
	}
	t.reg.series[id].acc += n
}

// Enabled reports whether the recorder is live (non-nil).
func (t *Telemetry) Enabled() bool { return t != nil }
