package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/expt"
	"repro/internal/telemetry"
)

// pb is a minimal protobuf writer for building synthetic profiles.
type pb struct{ b []byte }

func (p *pb) key(field, wire int)      { p.b = binary.AppendUvarint(p.b, uint64(field)<<3|uint64(wire)) }
func (p *pb) uint(field int, x uint64) { p.key(field, 0); p.b = binary.AppendUvarint(p.b, x) }
func (p *pb) msg(field int, b []byte) {
	p.key(field, 2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(field int, xs ...uint64) {
	var q pb
	for _, x := range xs {
		q.b = binary.AppendUvarint(q.b, x)
	}
	p.msg(field, q.b)
}

// syntheticProfile builds a gzipped CPU profile. Each stack lists its
// locations leaf first; each location lists its functions innermost
// (inlined) first.
func syntheticProfile(t *testing.T, funcs [][2]string, stacks [][][]int, values []int64) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	intern := func(s string) uint64 {
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var prof pb
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var m pb
		m.uint(fValueTypeType, vt[0])
		m.uint(2, vt[1])
		prof.msg(fProfileSampleType, m.b)
	}
	for i, f := range funcs {
		var m pb
		m.uint(fFunctionID, uint64(i+1))
		m.uint(fFunctionName, intern(f[0]))
		m.uint(fFunctionFile, intern(f[1]))
		prof.msg(fProfileFunction, m.b)
	}
	loc := uint64(0)
	for i, stack := range stacks {
		var ids []uint64
		for _, fns := range stack {
			loc++
			var m pb
			m.uint(fLocationID, loc)
			for _, fn := range fns {
				var line pb
				line.uint(fLineFunction, uint64(fn))
				m.msg(fLocationLine, line.b)
			}
			prof.msg(fProfileLocation, m.b)
			ids = append(ids, loc)
		}
		var s pb
		if i%2 == 0 { // exercise both the packed and the one-per-field encodings
			s.packed(fSampleLocation, ids...)
			s.packed(fSampleValue, 1, uint64(values[i]))
		} else {
			for _, id := range ids {
				s.uint(fSampleLocation, id)
			}
			s.uint(fSampleValue, 1)
			s.uint(fSampleValue, uint64(values[i]))
		}
		prof.msg(fProfileSample, s.b)
	}
	for _, s := range strs {
		prof.msg(fProfileStringTable, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAttributeSyntheticProfile(t *testing.T) {
	// Function ids are 1-based positions in funcs.
	funcs := [][2]string{
		{"repro/internal/sim.(*Engine).Run", "repro/internal/sim/engine.go"},
		{"repro/internal/kernel.(*Process).sweepPage", "/src/repro/internal/kernel/sweep.go"},
		{"repro/internal/kernel.(*Thread).LoadCap", "repro/internal/kernel/thread.go"},
		{"runtime.mallocgc", "runtime/malloc.go"},
		{"repro/internal/bus.(*Bus).Access", "repro/internal/bus/bus.go"},
		{"runtime.gcBgMarkWorker", "runtime/mgc.go"},
		{"repro/internal/workload/heapscale.Workload.Body", "repro/internal/workload/heapscale/heapscale.go"},
		{"main.main", "repro/bench/main.go"},
		{"repro/internal/tmem.(*Phys).SweepTagsWords.func1", "repro/internal/tmem/tmem.go"},
	}
	stacks := [][][]int{
		{{4}, {3}, {1}},    // runtime under kernel: the innermost repository frame wins
		{{5, 2}, {1}},      // bus inlined into the sweep: the inlined callee wins
		{{2}, {1}},         // kernel's sweep.go
		{{6}},              // no repository frame
		{{4}, {7}, {1}},    // a workload package
		{{8}},              // the benchmark itself
		{{4}, {9, 2}, {1}}, // a closure of tmem inlined into the sweep
	}
	values := []int64{10, 20, 30, 40, 50, 60, 70}
	want := map[string]int64{"kernel": 10, "bus": 20, "kernel.sweep": 30, "gc": 40, "other": 110, "tmem": 70}

	lp, err := attribute(syntheticProfile(t, funcs, stacks, values))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lp.NS, want) {
		t.Fatalf("layer ns = %v, want %v", lp.NS, want)
	}
	if lp.Samples != len(stacks) || lp.Total != 280 {
		t.Fatalf("samples %d total %d, want %d and 280", lp.Samples, lp.Total, len(stacks))
	}
	sum := 0.0
	for _, l := range layers {
		sum += lp.share(l)
	}
	for l := range lp.NS {
		if !contains(layers, l) {
			t.Errorf("sample attributed to %q, which is not a reported layer", l)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v, want 1", sum)
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func TestSpanNesting(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	all := []span{
		{ID: 1, Name: "iteration", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "job a", Lane: 1, Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "job b", Lane: 2, Start: ms(20), End: ms(50)},
		{ID: 4, Parent: 1, Name: "job c", Lane: 1, Start: ms(90), End: ms(120)},
		{ID: 5, Parent: 2, Name: "inner", Lane: 1, Start: ms(12), End: ms(15)},
	}
	// Children cover [10,50) and [90,100) of the iteration; the grandchild
	// lies inside a child and must not count twice.
	if got := selfTime(all, 1); got != ms(50) {
		t.Errorf("iteration self time %v, want 50ms", got)
	}
	if got := selfTime(all, 2); got != ms(17) {
		t.Errorf("job a self time %v, want 17ms", got)
	}
	iv := [][2]time.Duration{{ms(0), ms(10)}, {ms(5), ms(20)}}
	if got := underCovered(iv, ms(0), ms(30), 2); got != ms(25) {
		t.Errorf("time with fewer than 2 running %v, want 25ms", got)
	}
	if got := underCovered(iv, ms(0), ms(30), 1); got != ms(10) {
		t.Errorf("time with nothing running %v, want 10ms", got)
	}

	// Spans recorded live nest, and export as complete events.
	sp := newSpans()
	it := sp.begin("iteration 1", 0, laneDriver)
	lane := sp.acquireLane()
	job := sp.begin("job", it, lane)
	sp.end(job)
	sp.releaseLane(lane)
	sp.end(it)
	got := sp.snapshot()
	if p, c := got[it-1], got[job-1]; c.Parent != it || c.Start < p.Start || c.End > p.End || c.Lane != 1 {
		t.Fatalf("child %+v does not nest in parent %+v", c, p)
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, got, sp.lanes, "test"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	complete := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			complete++
			if _, ok := e.Args["self_us"]; !ok {
				t.Error("complete event without self_us")
			}
		}
	}
	if complete != 2 {
		t.Fatalf("%d complete events, want 2", complete)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(values, n=4) gives these first and third quartiles.
	for _, c := range []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{5, 1}, 0, 6}, // extrapolated, as Python does
	} {
		if q1, q3 := quartiles(c.values); math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.values, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	// series is n runs' medians around base.
	series := func(base, step float64, n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = base + step*float64(i%3-1)
		}
		return v
	}
	parent := series(100, 1, 10)
	noisy := []float64{60, 100, 140, 80, 120}
	cases := []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"identical", parent, parent, "lower", "same"},
		{"slower beyond bound", parent, series(115, 1, 10), "lower", "worse"},
		{"slower within bound", parent, series(108, 1, 10), "lower", "same"},
		{"faster, ten pairs won", parent, series(88, 1, 10), "lower", "better"},
		{"faster, too few pairs", parent, series(88, 1, 5), "lower", "same"},
		{"lower throughput", parent, series(80, 1, 10), "higher", "worse"},
		{"higher throughput", parent, series(120, 1, 10), "higher", "better"},
		{"spread wider than bound", noisy, series(100, 1, 10), "lower", "unresolved"},
		{"spread wider, every run better", noisy, series(50, 1, 10), "lower", "better"},
		{"one run a side", []float64{100}, []float64{150}, "lower", "unresolved"},
		{"too few runs, every run better", series(100, 1, 3), series(50, 1, 3), "lower", "better"},
		{"no change runs", parent, nil, "lower", "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsWorse(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, docs ...any) string {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, d := range docs {
			if err := enc.Encode(d); err != nil {
				t.Fatal(err)
			}
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := write("spec.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "host_s", "unit": "s", "better": "lower", "bound": 0.1},
	}})
	// runs is a result file of n runs, the i-th with median host*(1+i/100).
	runs := func(name string, n int, host float64, failed int) string {
		var docs []any
		for i := 0; i < n; i++ {
			h := host * (1 + float64(i)/100)
			docs = append(docs, resultDoc{Workloads: []workloadResult{{
				Name: "w", Attempted: 3, Failed: failed,
				EndToEnd: map[string]summary{"host_s": summarize("s", []float64{h, h, h})},
			}}})
		}
		return write(name, docs...)
	}
	base := runs("a.json", 6, 1, 0)
	for _, c := range []struct {
		name      string
		change    string
		wantWorse bool
	}{
		{"same", runs("same.json", 6, 1.02, 0), false},
		{"slower", runs("slower.json", 6, 1.5, 0), true},
		{"slower, one run", runs("one.json", 1, 1.5, 0), false}, // unresolved
		{"failed operations", runs("failed.json", 6, 1, 1), true},
	} {
		var out bytes.Buffer
		worse, err := compare(&out, spec, base, c.change)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.wantWorse {
			t.Errorf("%s: worse = %v, want %v\n%s", c.name, worse, c.wantWorse, out.String())
		}
	}
}

// TestIterationExecutesJobs guards against a second iteration being
// served from pool memoization instead of executing its jobs.
func TestIterationExecutesJobs(t *testing.T) {
	r := prepareFigures(1).(*figuresRunner)
	var calls atomic.Int64
	r.run = func(j expt.Job, _ *telemetry.Options) (*expt.JobResult, error) {
		calls.Add(1)
		return syntheticResult(j), nil
	}
	if r.planned != 74 {
		t.Fatalf("figures grid has %d jobs, want 74", r.planned)
	}
	var first string
	for it := 1; it <= 2; it++ {
		calls.Store(0)
		var sp *spans
		if it == 2 {
			sp = newSpans() // the traced path must execute its jobs too
		}
		o := r.iterate(sp, 0)
		if o.err != nil {
			t.Fatalf("iteration %d: %v", it, o.err)
		}
		if n := calls.Load(); n != int64(r.planned) || o.attempted != r.planned {
			t.Fatalf("iteration %d executed %d jobs (%d attempted), want %d", it, n, o.attempted, r.planned)
		}
		if it == 1 {
			first = o.digest
		} else if o.digest != first {
			t.Fatalf("digest changed between iterations: %s vs %s", first, o.digest)
		}
	}
}

// TestSpecMatchesCode keeps BENCHMARK.json and the program in step.
func TestSpecMatchesCode(t *testing.T) {
	var spec benchSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code %d", len(spec.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
	}
}

// figuresRuns caches full figures iterations by worker count for the
// long tests below.
var figuresRuns = map[int]outcome{}

func figuresAt(t *testing.T, workers int) outcome {
	t.Helper()
	if testing.Short() {
		t.Skip("runs the whole figure grid")
	}
	if o, ok := figuresRuns[workers]; ok {
		return o
	}
	r := prepareFigures(1).(*figuresRunner)
	r.workers = workers
	o := r.iterate(nil, 0)
	if o.err != nil {
		t.Fatal(o.err)
	}
	figuresRuns[workers] = o
	return o
}

func TestFiguresDigestWorkerInvariant(t *testing.T) {
	one, two := figuresAt(t, 1), figuresAt(t, 2)
	if one.digest != two.digest {
		t.Fatalf("figures digest differs between 1 and 2 workers: %s vs %s", one.digest, two.digest)
	}
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		t.Fatal(err)
	}
	if want, ok := g.Digests["figures"]; ok && g.Seed == 1 && want != two.digest {
		t.Fatalf("figures digest %s, golden.json records %s", two.digest, want)
	}
}

// TestFiguresMatchCommittedSweep checks the eleven paper tables against
// the rows committed in BENCH_sweep.json, which the same grid produced.
func TestFiguresMatchCommittedSweep(t *testing.T) {
	o := figuresAt(t, 2)
	var committed expt.Document
	if err := readJSON("../BENCH_sweep.json", &committed); err != nil {
		t.Fatal(err)
	}
	if len(committed.Figures) != 11 {
		t.Fatalf("BENCH_sweep.json holds %d figures, want 11", len(committed.Figures))
	}
	got := map[string][][]string{}
	for _, f := range o.doc.Figures {
		got[f.ID] = f.Rows
	}
	for _, f := range committed.Figures {
		if !reflect.DeepEqual(got[f.ID], f.Rows) {
			t.Errorf("%s rows differ from BENCH_sweep.json:\n got  %v\n want %v", f.ID, got[f.ID], f.Rows)
		}
	}
}
