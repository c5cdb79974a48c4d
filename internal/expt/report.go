package expt

import (
	"encoding/json"
	"io"
	"sort"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Schema identifies the JSON results document layout. Bump on any
// backwards-incompatible change; BENCH_*.json trajectory tooling keys on
// it.
const Schema = "cornucopia-sweep/v1"

// Document is the machine-readable output of one sweep: every figure's
// table, every job's headline measurements, and per-(workload, condition)
// aggregate distributions.
type Document struct {
	Schema string `json:"schema"`
	// Workers, Reps and Scale record how the sweep was invoked.
	Workers int    `json:"workers"`
	Reps    int    `json:"reps"`
	Scale   uint64 `json:"scale"`

	Figures    []FigureResult `json:"figures"`
	Jobs       []JobSummary   `json:"jobs"`
	Aggregates []Aggregate    `json:"aggregates"`
	Pool       PoolStats      `json:"pool"`
}

// FigureResult is one regenerated table, both structured and rendered.
type FigureResult struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
	Text   string     `json:"text"`
}

// NewFigureResult captures a rendered table.
func NewFigureResult(id string, t *harness.Table) FigureResult {
	return FigureResult{
		ID: id, Title: t.Title, Header: t.Header, Rows: t.Rows, Notes: t.Notes,
		Text: t.String(),
	}
}

// JobSummary is one job's headline measurements plus execution metadata.
// Virtual quantities (cycles, DRAM, RSS) are deterministic per key;
// HostMillis is the host-side cost and varies run to run.
type JobSummary struct {
	Key       string `json:"key"`
	Workload  string `json:"workload"`
	Condition string `json:"condition"`
	Seed      int64  `json:"seed"`

	WallCycles   uint64 `json:"wall_cycles"`
	CPUCycles    uint64 `json:"cpu_cycles"`
	DRAMTotal    uint64 `json:"dram_total"`
	PeakRSSPages int    `json:"peak_rss_pages"`
	Epochs       int    `json:"epochs"`

	Cached     bool    `json:"cached,omitempty"`
	Attempts   int     `json:"attempts"`
	HostMillis float64 `json:"host_ms"`
}

// Aggregate is one metric's distribution over a (workload, condition)
// cell's repetitions.
type Aggregate struct {
	Workload  string  `json:"workload"`
	Condition string  `json:"condition"`
	Metric    string  `json:"metric"`
	N         int     `json:"n"`
	Mean      float64 `json:"mean"`
	CI95      float64 `json:"ci95"`
	Min       float64 `json:"min"`
	Median    float64 `json:"median"`
	Max       float64 `json:"max"`
}

// aggregateMetrics are the per-run quantities aggregated per cell.
var aggregateMetrics = []struct {
	name string
	get  func(*JobResult) float64
}{
	{"wall_cycles", func(r *JobResult) float64 { return float64(r.WallCycles) }},
	{"cpu_cycles", func(r *JobResult) float64 { return float64(r.CPUCycles) }},
	{"app_cpu_cycles", func(r *JobResult) float64 { return float64(r.AppCPUCycles) }},
	{"dram_total", func(r *JobResult) float64 { return float64(r.DRAMTotal) }},
	{"peak_rss_pages", func(r *JobResult) float64 { return float64(r.PeakRSSPages) }},
	{"epochs", func(r *JobResult) float64 { return float64(len(r.Epochs)) }},
}

// BuildAggregates folds completed jobs into per-cell distributions,
// ordered by workload, condition, metric for stable output.
func BuildAggregates(results []*JobResult) []Aggregate {
	type cellKey struct{ w, c string }
	cells := map[cellKey][]*JobResult{}
	var order []cellKey
	for _, r := range results {
		k := cellKey{r.Workload, r.Condition}
		if _, ok := cells[k]; !ok {
			order = append(order, k)
		}
		cells[k] = append(cells[k], r)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].w != order[j].w {
			return order[i].w < order[j].w
		}
		return order[i].c < order[j].c
	})
	var out []Aggregate
	for _, k := range order {
		rs := cells[k]
		for _, m := range aggregateMetrics {
			s := &metrics.Samples{}
			for _, r := range rs {
				s.Add(m.get(r))
			}
			mean, ci := s.MeanCI()
			min, _ := s.MinOK()
			med, _ := s.MedianOK()
			max, _ := s.MaxOK()
			out = append(out, Aggregate{
				Workload: k.w, Condition: k.c, Metric: m.name, N: s.N(),
				Mean: mean, CI95: ci, Min: min, Median: med, Max: max,
			})
		}
	}
	return out
}

// BuildDocument assembles the results document from an executor's
// completed jobs and the figures it regenerated. The executor may be a
// local Pool or internal/dist's network Coordinator; the document's
// simulation-derived content is identical either way.
func BuildDocument(p Executor, figures []FigureResult, workers int, reps int, scale uint64) *Document {
	completed := p.Results()
	doc := &Document{
		Schema:  Schema,
		Workers: workers,
		Reps:    reps,
		Scale:   scale,
		Figures: figures,
		Pool:    p.Stats(),
	}
	var results []*JobResult
	for _, c := range completed {
		r := c.Result
		results = append(results, r)
		doc.Jobs = append(doc.Jobs, JobSummary{
			Key: c.Key, Workload: r.Workload, Condition: r.Condition, Seed: r.Seed,
			WallCycles: r.WallCycles, CPUCycles: r.CPUCycles, DRAMTotal: r.DRAMTotal,
			PeakRSSPages: r.PeakRSSPages, Epochs: len(r.Epochs),
			Cached: c.Cached, Attempts: c.Attempts,
			HostMillis: float64(c.Host.Microseconds()) / 1e3,
		})
	}
	doc.Aggregates = BuildAggregates(results)
	return doc
}

// Canonicalize zeroes the document's host-execution metadata — per-job
// host wall times, attempt counts, cache provenance, and the pool
// counters — leaving only simulation-derived content. Two canonicalized
// documents for the same grid are byte-identical regardless of where and
// how the jobs ran: worker count, local vs. distributed execution,
// manifest resume, and mid-campaign worker crashes (which surface as
// extra attempts) all disappear. cmd/sweep -canonical applies this for
// the CI smoke diffs.
func (d *Document) Canonicalize() {
	for i := range d.Jobs {
		d.Jobs[i].HostMillis = 0
		d.Jobs[i].Attempts = 0
		d.Jobs[i].Cached = false
	}
	d.Pool = PoolStats{}
}

// Write emits the document as indented JSON.
func (d *Document) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// TimelineJobs turns completed jobs into timeline rows, attributing each
// to workers[key] when the map names the worker that ran it (a nil map
// puts every job on the "local" track). Every campaign timeline —
// sweep/chaos -timeline and obs timeline — is built through it.
func TimelineJobs(done []Completed, workers map[string]string) []trace.TimelineJob {
	var out []trace.TimelineJob
	for _, c := range done {
		r := c.Result
		if r == nil {
			continue
		}
		tj := trace.TimelineJob{
			Key: c.Key, Workload: r.Workload, Condition: r.Condition, Seed: r.Seed,
			Worker:     workers[c.Key],
			HostMS:     float64(c.Host.Microseconds()) / 1e3,
			WallCycles: r.WallCycles, HzGHz: r.HzGHz,
		}
		if r.Telem != nil {
			tj.Trace, tj.TraceDropped = r.Telem.Trace, r.Telem.TraceDropped
		}
		out = append(out, tj)
	}
	return out
}
