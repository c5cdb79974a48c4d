package telemetry

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestNilTelemetryIsNoOp(t *testing.T) {
	var tl *Telemetry
	if tl.Enabled() {
		t.Fatal("nil telemetry reports enabled")
	}
	// None of these may panic.
	tl.Bind(nil)
	tl.SetBase(nil, CompRevoker)
	tl.Enter(nil, CompSweep)
	tl.Exit(nil)
	tl.Source(StdEpochCounter, func() float64 { return 1 })
	tl.Observe(StdEpochCycles, 5)
	tl.Add(StdShootdownsTotal, 1)
	if tl.Snapshot() != nil {
		t.Fatal("nil Snapshot() != nil")
	}
}

// runTinySim drives a two-core engine through a deterministic schedule:
// an app thread that nests alloc→kernel frames and a revoker thread that
// sweeps, so the trie holds root, nested, and re-entered frames.
func runTinySim(t *testing.T, tl *Telemetry) *sim.Engine {
	t.Helper()
	eng := sim.New(sim.Config{Cores: 2, SkewQuantum: 1000, OSQuantum: 100_000, HzGHz: 2.5})
	tl.Bind(eng)
	app := eng.Spawn("app", []int{0}, func(th *sim.Thread) {
		th.Tick(100)
		tl.Enter(th, CompAlloc)
		th.Tick(40)
		tl.Enter(th, CompKernel)
		th.Tick(10)
		tl.Exit(th)
		th.Tick(5)
		tl.Exit(th)
		// Re-enter the same child: cycles must merge into one trie node.
		tl.Enter(th, CompAlloc)
		th.Tick(40)
		tl.Exit(th)
		th.Tick(200)
	})
	tl.SetBase(app, CompApp)
	rev := eng.Spawn("revoker", []int{1}, func(th *sim.Thread) {
		tl.Enter(th, CompSweep)
		th.Tick(60)
		tl.Exit(th)
		th.Tick(15)
	})
	tl.SetBase(rev, CompRevoker)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return eng
}

func stackCycles(s *Snapshot) map[string]uint64 {
	m := map[string]uint64{}
	for _, st := range s.Stacks {
		m[st.Stack] += st.Cycles
	}
	return m
}

func TestProfilerAttributionAndInterning(t *testing.T) {
	tl := New(Options{})
	runTinySim(t, tl)
	snap := tl.Snapshot()
	if err := snap.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	got := stackCycles(snap)
	want := map[string]uint64{
		"app":              300, // 100 before + 200 after the nested work
		"app;alloc":        85,  // 40 + 5 + the re-entered 40: one trie node
		"app;alloc;kernel": 10,
		"revoker":          15,
		"revoker;sweep":    60,
	}
	for stack, cyc := range want {
		if got[stack] != cyc {
			t.Errorf("stack %q = %d cycles, want %d (all: %v)", stack, got[stack], cyc, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d distinct stacks %v, want %d", len(got), got, len(want))
	}
	// The re-entered alloc frame must not mint a duplicate folded line.
	var buf bytes.Buffer
	if err := snap.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	seen := map[string]bool{}
	for _, l := range lines {
		stack := strings.Fields(l)[0]
		if seen[stack] {
			t.Errorf("folded output repeats stack %q:\n%s", stack, buf.String())
		}
		seen[stack] = true
	}
}

func TestExitUnderflowPanics(t *testing.T) {
	tl := New(Options{})
	eng := sim.New(sim.Config{Cores: 1, SkewQuantum: 1000, OSQuantum: 1000, HzGHz: 1})
	tl.Bind(eng)
	eng.Spawn("app", nil, func(th *sim.Thread) {
		defer func() {
			if recover() == nil {
				t.Error("Exit without Enter did not panic")
			}
		}()
		th.Tick(1)
		tl.Exit(th)
	})
	_ = eng.Run()
}

func TestSeriesSamplingAndHistogram(t *testing.T) {
	tl := New(Options{SampleEvery: 100})
	var epochs float64
	tl.Source(StdEpochsTotal, func() float64 { return epochs })
	tl.Add(StdShootdownsTotal, 3)
	tl.Observe(StdEpochCycles, 5_000)
	tl.Observe(StdEpochCycles, 2_000_000)
	eng := sim.New(sim.Config{Cores: 1, SkewQuantum: 10_000, OSQuantum: 10_000, HzGHz: 1})
	tl.Bind(eng)
	eng.Spawn("app", nil, func(th *sim.Thread) {
		th.Tick(150)
		epochs = 2
		th.Tick(300)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	snap := tl.Snapshot()
	if len(snap.Rows) < 4 {
		t.Fatalf("sampled %d rows, want ≥ 4 (450 cycles at interval 100)", len(snap.Rows))
	}
	var prev uint64
	for i, rw := range snap.Rows {
		if i > 0 && rw.Cycle <= prev {
			t.Fatalf("row cycles not increasing: %d after %d", rw.Cycle, prev)
		}
		prev = rw.Cycle
	}
	series := map[string]SeriesSnap{}
	for _, ss := range snap.Series {
		series[ss.Name] = ss
	}
	if v := series["epochs_total"].Value; v != 2 {
		t.Errorf("epochs_total = %v, want 2", v)
	}
	if v := series["shootdowns_total"].Value; v != 3 {
		t.Errorf("shootdowns_total = %v, want 3", v)
	}
	h := series["epoch_cycles"]
	if h.Count != 2 || h.Sum != 2_005_000 {
		t.Errorf("epoch_cycles count/sum = %d/%v, want 2/2005000", h.Count, h.Sum)
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total != 2 {
		t.Errorf("histogram bucket counts sum to %d, want 2", total)
	}
}

func TestRowCapDownsamples(t *testing.T) {
	tl := New(Options{SampleEvery: 10, MaxRows: 8})
	eng := sim.New(sim.Config{Cores: 1, SkewQuantum: 100_000, OSQuantum: 100_000, HzGHz: 1})
	tl.Bind(eng)
	eng.Spawn("app", nil, func(th *sim.Thread) {
		for i := 0; i < 100; i++ {
			th.Tick(10)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	snap := tl.Snapshot()
	if len(snap.Rows) > 8 {
		t.Fatalf("retained %d rows, cap is 8", len(snap.Rows))
	}
	if snap.SampleEvery <= 10 {
		t.Fatalf("SampleEvery = %d, want widened beyond 10", snap.SampleEvery)
	}
}

// synthSnap builds a small synthetic snapshot keyed by seed, with a
// histogram series, for merge-determinism tests.
func synthSnap(seed uint64) *Snapshot {
	tl := New(Options{SampleEvery: 50})
	tl.Add(StdShootdownsTotal, float64(seed))
	tl.Observe(StdEpochCycles, float64(seed*1_000))
	tl.Observe(StdEpochCycles, float64(seed*100_000_000))
	tl.Busy(0, 0, 100*seed)
	tl.Idle(0, 10*seed)
	tl.Busy(1, 1, 7*seed)
	tl.Idle(1, 3*seed)
	return tl.Snapshot()
}

// TestMergeDeterministicAcrossShardOrders is the worker-count invariance
// property at the merge layer: however job shards are ordered when they
// arrive (completion order varies with -workers), Merge and every
// exporter produce byte-identical output.
func TestMergeDeterministicAcrossShardOrders(t *testing.T) {
	shards := []Keyed{
		{Key: "c", Snap: synthSnap(3)},
		{Key: "a", Snap: synthSnap(1)},
		{Key: "d", Snap: nil}, // a failed job contributes nothing
		{Key: "b", Snap: synthSnap(2)},
	}
	export := func(order []int) (folded, om, csv string) {
		perm := make([]Keyed, len(order))
		for i, idx := range order {
			perm[i] = shards[idx]
		}
		m := Merge(perm)
		var fb, ob, cb bytes.Buffer
		if err := m.WriteFolded(&fb); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteOpenMetrics(&ob, true); err != nil {
			t.Fatal(err)
		}
		if err := WriteSeriesCSV(&cb, perm); err != nil {
			t.Fatal(err)
		}
		return fb.String(), ob.String(), cb.String()
	}
	f0, o0, c0 := export([]int{0, 1, 2, 3})
	for _, order := range [][]int{{3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}} {
		f, o, c := export(order)
		if f != f0 {
			t.Errorf("folded output differs for order %v:\n%s\nvs\n%s", order, f, f0)
		}
		if o != o0 {
			t.Errorf("OpenMetrics output differs for order %v", order)
		}
		if c != c0 {
			t.Errorf("series CSV differs for order %v", order)
		}
	}
	// Histogram buckets must sum across shards: seeds 1+2+3 observed two
	// values each.
	m := Merge(shards)
	for _, ss := range m.Series {
		if ss.Name != "epoch_cycles" {
			continue
		}
		if ss.Count != 6 {
			t.Errorf("merged histogram count = %d, want 6", ss.Count)
		}
		var total uint64
		for _, c := range ss.Counts {
			total += c
		}
		if total != 6 {
			t.Errorf("merged bucket counts sum to %d, want 6", total)
		}
	}
}

// TestMergeOfOneSnapshotIsItself pins what lets a single run and a
// campaign share one export writer: merging one snapshot reproduces that
// snapshot's own folded, pprof and OpenMetrics bytes.
func TestMergeOfOneSnapshotIsItself(t *testing.T) {
	tl := New(Options{SampleEvery: 50})
	runTinySim(t, tl)
	tl.Idle(1, 320) // the revoker's core waits out the app's run
	tl.Add(StdShootdownsTotal, 3)
	tl.Observe(StdEpochCycles, 2_000)
	snap := tl.Snapshot()
	merged := Merge([]Keyed{{Key: "run", Snap: snap}})
	for _, e := range []struct {
		name  string
		write func(*Snapshot, io.Writer) error
	}{
		{"folded", (*Snapshot).WriteFolded},
		{"pprof", (*Snapshot).WritePprof},
		{"openmetrics", func(s *Snapshot, w io.Writer) error { return s.WriteOpenMetrics(w, true) }},
	} {
		var own, got bytes.Buffer
		if err := e.write(snap, &own); err != nil {
			t.Fatal(err)
		}
		if err := e.write(merged, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(own.Bytes(), got.Bytes()) {
			t.Errorf("%s export of the one-snapshot merge differs from the snapshot's own", e.name)
		}
	}
}

func TestOpenMetricsShape(t *testing.T) {
	snap := synthSnap(2)
	var buf bytes.Buffer
	if err := snap.WriteOpenMetrics(&buf, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("missing EOF terminator:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	sampleFor := map[string]bool{}
	var curType string
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "# HELP "):
		case strings.HasPrefix(l, "# TYPE "):
			f := strings.Fields(l)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", l)
			}
			curType = f[2]
		case l == "# EOF":
		default:
			f := strings.Fields(l)
			if len(f) != 2 {
				t.Fatalf("malformed sample line %q", l)
			}
			name := f[0]
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			name = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
			if name == "" || curType == "" {
				t.Fatalf("sample %q precedes its TYPE line", l)
			}
			sampleFor[name] = true
		}
	}
	for _, want := range []string{"shootdowns_total", "epoch_cycles"} {
		if !sampleFor[want] {
			t.Errorf("no samples for %q:\n%s", want, out)
		}
	}
	// Histogram buckets must be cumulative and end at +Inf.
	if !strings.Contains(out, `epoch_cycles_bucket{le="+Inf"}`) {
		t.Errorf("histogram missing +Inf bucket:\n%s", out)
	}
}

func TestPprofGunzips(t *testing.T) {
	tl := New(Options{})
	runTinySim(t, tl)
	snap := tl.Snapshot()
	var buf bytes.Buffer
	if err := snap.WritePprof(&buf); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatalf("pprof output is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	if len(raw) == 0 {
		t.Fatal("empty profile proto")
	}
	// The string table must carry component and core names.
	for _, want := range []string{"app", "revoker", "core0", "cycles"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("profile proto missing %q", want)
		}
	}
}

func TestWriteSeriesCSVEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "job,cycle" {
		t.Fatalf("empty-series CSV = %q", got)
	}
}
