package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/trace"
)

// Snapshot is the serializable result of a recorded run: the profile as
// folded stacks, the final metric values, and the sampled time series.
// Snapshots round-trip through JSON (manifest resume) and merge
// deterministically, so sweep-level exports are byte-identical at any
// worker count.
type Snapshot struct {
	// SampleEvery is the effective sampling interval (it doubles when the
	// row cap is hit).
	SampleEvery uint64 `json:"sample_every"`
	// Cores is the number of cores that ever ran or idled.
	Cores int `json:"cores"`
	// CoreClock is each core's final simulated clock.
	CoreClock []uint64 `json:"core_clock"`
	// Idle is each core's unattributed (idle) cycles.
	Idle []uint64 `json:"idle"`
	// Stacks holds per-core attributed cycles by component stack, sorted
	// by (stack, core).
	Stacks []StackSample `json:"stacks"`
	// Series holds the final value of every registry series.
	Series []SeriesSnap `json:"series"`
	// Rows is the sampled time series (omitted from merges).
	Rows []RowSnap `json:"rows,omitempty"`
	// Trace is the exported trace-ring contents when the run was traced
	// (Options.TraceEvents > 0); like Rows it is per-job data and is
	// dropped from merges. TraceDropped counts ring overwrites and does
	// survive merges, so silent truncation stays visible fleet-wide.
	Trace        []trace.Event `json:"trace,omitempty"`
	TraceDropped uint64        `json:"trace_dropped,omitempty"`
}

// StackSample is attributed cycles for one component stack on one core.
type StackSample struct {
	Core   int    `json:"core"`
	Stack  string `json:"stack"` // "app;barrier-fault;sweep"
	Cycles uint64 `json:"cycles"`
}

// SeriesSnap is the end-of-run state of one metric series.
type SeriesSnap struct {
	Name   string    `json:"name"`
	Kind   string    `json:"kind"`
	Help   string    `json:"help"`
	Value  float64   `json:"value,omitempty"`
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []uint64  `json:"counts,omitempty"`
	Sum    float64   `json:"sum,omitempty"`
	Count  uint64    `json:"count,omitempty"`
}

// RowSnap is one time-series sample: the value of every series (in
// Series order) at a simulated cycle.
type RowSnap struct {
	Cycle  uint64    `json:"cycle"`
	Values []float64 `json:"values"`
}

// Snapshot captures the recorder's state. Call after sim.Engine.Run; the
// simulated side must be quiescent.
func (t *Telemetry) Snapshot() *Snapshot {
	if t == nil {
		return nil
	}
	cores := len(t.coreClock)
	if n := len(t.idle); n > cores {
		cores = n
	}
	s := &Snapshot{
		SampleEvery: t.opt.SampleEvery,
		Cores:       cores,
		CoreClock:   make([]uint64, cores),
		Idle:        make([]uint64, cores),
	}
	for i := 0; i < cores; i++ {
		if t.eng != nil {
			s.CoreClock[i] = t.eng.CoreClock(i)
		} else if i < len(t.coreClock) {
			s.CoreClock[i] = t.coreClock[i]
		}
		if i < len(t.idle) {
			s.Idle[i] = t.idle[i]
		}
	}
	for ni := range t.nodes {
		n := &t.nodes[ni]
		var any bool
		for _, c := range n.cycles {
			if c > 0 {
				any = true
				break
			}
		}
		if !any {
			continue
		}
		stack := t.stackOf(int32(ni))
		for core, cyc := range n.cycles {
			if cyc > 0 {
				s.Stacks = append(s.Stacks, StackSample{Core: core, Stack: stack, Cycles: cyc})
			}
		}
	}
	sortStacks(s.Stacks)
	for _, sr := range t.reg.series {
		ss := SeriesSnap{Name: sr.name, Kind: sr.kind.String(), Help: sr.help}
		if sr.kind == kindHistogram {
			ss.Bounds = sr.bounds
			ss.Counts = append([]uint64(nil), sr.counts...)
			ss.Sum = sr.sum
			ss.Count = sr.count
		} else {
			ss.Value = sr.value()
		}
		s.Series = append(s.Series, ss)
	}
	for _, rw := range t.reg.rows {
		s.Rows = append(s.Rows, RowSnap{Cycle: rw.cycle, Values: append([]float64(nil), rw.values...)})
	}
	return s
}

// stackOf renders the component path from a base frame to node ni.
func (t *Telemetry) stackOf(ni int32) string {
	var parts []string
	for ni >= 0 {
		parts = append(parts, t.nodes[ni].comp.String())
		ni = t.nodes[ni].parent
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, ";")
}

func sortStacks(st []StackSample) {
	sort.Slice(st, func(i, j int) bool {
		if st[i].Stack != st[j].Stack {
			return st[i].Stack < st[j].Stack
		}
		return st[i].Core < st[j].Core
	})
}

// CheckConservation verifies the profiler's core invariant: for every
// core, attributed busy cycles plus idle cycles equal the core's clock.
func (s *Snapshot) CheckConservation() error {
	busy := make([]uint64, s.Cores)
	for _, st := range s.Stacks {
		if st.Core >= len(busy) {
			return fmt.Errorf("telemetry: stack %q on core %d beyond %d cores", st.Stack, st.Core, s.Cores)
		}
		busy[st.Core] += st.Cycles
	}
	for c := 0; c < s.Cores; c++ {
		var idle uint64
		if c < len(s.Idle) {
			idle = s.Idle[c]
		}
		if got, want := busy[c]+idle, s.CoreClock[c]; got != want {
			return fmt.Errorf("telemetry: core %d attributed %d (busy %d + idle %d) != clock %d",
				c, got, busy[c], idle, want)
		}
	}
	return nil
}

// Keyed pairs a snapshot with a stable identity (e.g. an expt job key)
// used to fix the merge order.
type Keyed struct {
	Key  string
	Snap *Snapshot
}

// Merge combines snapshots into one aggregate. Inputs are sorted by key
// first, so the result is identical regardless of the order jobs finished
// in — the property behind byte-identical exports at any -workers count.
// Counters and gauges sum; histograms sum bucket-wise; per-job time-series
// rows and trace events are dropped (use WriteSeriesCSV / the timeline
// exporter for those) while TraceDropped counts sum.
func Merge(snaps []Keyed) *Snapshot {
	sorted := append([]Keyed(nil), snaps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	out := &Snapshot{}
	type skey struct {
		stack string
		core  int
	}
	acc := map[skey]uint64{}
	for _, ks := range sorted {
		sn := ks.Snap
		if sn == nil {
			continue
		}
		if sn.Cores > out.Cores {
			out.Cores = sn.Cores
		}
		out.SampleEvery = sn.SampleEvery
		out.TraceDropped += sn.TraceDropped
		grow := func(dst []uint64, n int) []uint64 {
			for len(dst) < n {
				dst = append(dst, 0)
			}
			return dst
		}
		out.CoreClock = grow(out.CoreClock, len(sn.CoreClock))
		for i, v := range sn.CoreClock {
			out.CoreClock[i] += v
		}
		out.Idle = grow(out.Idle, len(sn.Idle))
		for i, v := range sn.Idle {
			out.Idle[i] += v
		}
		for _, st := range sn.Stacks {
			acc[skey{st.Stack, st.Core}] += st.Cycles
		}
		if out.Series == nil {
			for _, ss := range sn.Series {
				cp := ss
				cp.Counts = append([]uint64(nil), ss.Counts...)
				out.Series = append(out.Series, cp)
			}
			continue
		}
		for i, ss := range sn.Series {
			if i >= len(out.Series) || out.Series[i].Name != ss.Name {
				continue // schema drift between snapshots; keep first
			}
			dst := &out.Series[i]
			if ss.Kind == "histogram" {
				for b, c := range ss.Counts {
					if b < len(dst.Counts) {
						dst.Counts[b] += c
					}
				}
				dst.Sum += ss.Sum
				dst.Count += ss.Count
			} else {
				dst.Value += ss.Value
			}
		}
	}
	for k, cyc := range acc {
		out.Stacks = append(out.Stacks, StackSample{Core: k.core, Stack: k.stack, Cycles: cyc})
	}
	sortStacks(out.Stacks)
	return out
}

// WriteFolded emits the profile in folded flame-graph format, one stack
// per line ("core0;app;sweep 1234"), sorted, with idle pseudo-frames.
// Feed to speedscope or any FlameGraph implementation.
func (s *Snapshot) WriteFolded(w io.Writer) error {
	var lines []string
	for _, st := range s.Stacks {
		lines = append(lines, fmt.Sprintf("core%d;%s %d", st.Core, st.Stack, st.Cycles))
	}
	for c, idle := range s.Idle {
		if idle > 0 {
			lines = append(lines, fmt.Sprintf("core%d;%s %d", c, idleFrame, idle))
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// fmtVal renders a metric value in shortest round-trip form.
func fmtVal(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteOpenMetrics emits the final series values in OpenMetrics text
// exposition format. When eof is true a terminating "# EOF" is appended,
// making the output a complete scrape body; pass false to embed the
// families inside a larger exposition (the live server does this).
func (s *Snapshot) WriteOpenMetrics(w io.Writer, eof bool) error {
	for _, ss := range s.Series {
		name := ss.Name
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, ss.Help, name, ss.Kind); err != nil {
			return err
		}
		switch ss.Kind {
		case "histogram":
			var cum uint64
			for i, c := range ss.Counts {
				cum += c
				le := "+Inf"
				if i < len(ss.Bounds) {
					le = fmtVal(ss.Bounds[i])
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, le, cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, fmtVal(ss.Sum), name, ss.Count); err != nil {
				return err
			}
		case "counter":
			// OpenMetrics counters expose a _total sample; the registry
			// names already carry the suffix.
			if _, err := fmt.Fprintf(w, "%s %s\n", name, fmtVal(ss.Value)); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s %s\n", name, fmtVal(ss.Value)); err != nil {
				return err
			}
		}
	}
	if eof {
		if _, err := fmt.Fprintln(w, "# EOF"); err != nil {
			return err
		}
	}
	return nil
}

// WriteSeriesCSV emits the sampled time series of the given snapshots as
// CSV: job,cycle,<series...>, with histogram columns carrying cumulative
// observation counts. Jobs are sorted by key, so output is byte-identical
// at any worker count.
func WriteSeriesCSV(w io.Writer, snaps []Keyed) error {
	sorted := append([]Keyed(nil), snaps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var ref *Snapshot
	for _, ks := range sorted {
		if ks.Snap != nil {
			ref = ks.Snap
			break
		}
	}
	if ref == nil {
		_, err := fmt.Fprintln(w, "job,cycle")
		return err
	}
	cols := []string{"job", "cycle"}
	for _, ss := range ref.Series {
		cols = append(cols, ss.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, ks := range sorted {
		if ks.Snap == nil {
			continue
		}
		for _, rw := range ks.Snap.Rows {
			rec := make([]string, 0, len(rw.Values)+2)
			rec = append(rec, ks.Key, strconv.FormatUint(rw.Cycle, 10))
			for _, v := range rw.Values {
				rec = append(rec, fmtVal(v))
			}
			if _, err := fmt.Fprintln(w, strings.Join(rec, ",")); err != nil {
				return err
			}
		}
	}
	return nil
}
