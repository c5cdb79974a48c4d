package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"html/template"
	"io"
	"log"
	"math"
	"sort"
	"strings"

	"repro/internal/expt"
	"repro/internal/journal"
	"repro/internal/telemetry"
)

// ReportSchema versions the JSON form of the postmortem report.
const ReportSchema = "cornucopia-obs/v1"

// Report is the campaign postmortem, assembled from the journal (always)
// and the manifest's telemetry snapshots (when given).
type Report struct {
	Schema string `json:"schema"`
	Tool   string `json:"tool"`
	Grid   string `json:"grid"`
	Events int    `json:"events"`
	// WallMS spans the first to the last journal event, host clock.
	WallMS float64 `json:"wall_ms"`

	Jobs    JobsSummary `json:"jobs"`
	Latency *Latency    `json:"latency,omitempty"`
	Workers []WorkerRow `json:"workers,omitempty"`
	Costs   []CostRow   `json:"costs,omitempty"`
	// Incidents is everything that went wrong or degraded, in order:
	// retries, lease reclaims, breaker trips, evictions, injected network
	// faults, local fallback.
	Incidents []Incident `json:"incidents,omitempty"`
	// TopStacks is the simulated-cycle attribution from the manifest's
	// merged telemetry (empty without -manifest).
	TopStacks    []StackRow `json:"top_stacks,omitempty"`
	TraceDropped uint64     `json:"trace_dropped,omitempty"`
}

// JobsSummary counts journal job outcomes.
type JobsSummary struct {
	Submitted int `json:"submitted"`
	Ran       int `json:"ran"`
	Cached    int `json:"cached"`
	Failed    int `json:"failed"`
	Retries   int `json:"retries"`
}

// Latency is the coordinated-omission-correct job latency distribution:
// each sample spans a job's submit event to its result event on the
// coordinator's host clock, so queue wait — the part a per-job timer
// omits — is included.
type Latency struct {
	Count  int     `json:"count"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// WorkerRow is one worker's share of the campaign. UtilPct is its summed
// job host-milliseconds over the campaign wall clock — above 100% means
// the worker held concurrent leases.
type WorkerRow struct {
	Worker  string  `json:"worker"`
	Name    string  `json:"name,omitempty"`
	Jobs    int     `json:"jobs"`
	Cached  int     `json:"cached,omitempty"`
	Failed  int     `json:"failed,omitempty"`
	HostMS  float64 `json:"host_ms"`
	UtilPct float64 `json:"util_pct"`
	Evicted bool    `json:"evicted,omitempty"`
}

// CostRow is the host cost of one (workload, condition) grid row.
type CostRow struct {
	Workload  string  `json:"workload"`
	Condition string  `json:"condition"`
	Jobs      int     `json:"jobs"`
	HostMS    float64 `json:"host_ms"`
	VCycles   uint64  `json:"vcycles"`
}

// Incident is one degraded-mode journal event.
type Incident struct {
	HostNS  int64  `json:"host_ns"`
	Kind    string `json:"kind"`
	Worker  string `json:"worker,omitempty"`
	Key     string `json:"key,omitempty"`
	Detail  string `json:"detail,omitempty"`
	Err     string `json:"err,omitempty"`
	Count   uint64 `json:"count,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
}

// StackRow is one attribution stack of the merged cycle profile.
type StackRow struct {
	Stack    string  `json:"stack"`
	Cycles   uint64  `json:"cycles"`
	SharePct float64 `json:"share_pct"`
}

func cmdReport(args []string) {
	fs := flag.NewFlagSet("obs report", flag.ExitOnError)
	jpath := fs.String("journal", "", "campaign journal (required)")
	mpath := fs.String("manifest", "", "campaign manifest for simulated-cycle attribution (optional)")
	format := fs.String("format", "text", "output format: text, json, or html")
	out := fs.String("out", "", "write the report here (default stdout)")
	top := fs.Int("top", 10, "attribution stacks to include")
	fs.Parse(args)
	if *jpath == "" && fs.NArg() == 1 {
		*jpath = fs.Arg(0)
	}
	if *jpath == "" {
		log.Fatal("report: -journal FILE is required")
	}
	j, err := journal.Read(*jpath)
	if err != nil {
		log.Fatalf("report: %v", err)
	}
	var entries []expt.Completed
	if *mpath != "" {
		if entries, err = expt.ReadManifest(*mpath); err != nil {
			log.Fatalf("report: %v", err)
		}
	}
	rep := BuildReport(j, entries, *top)

	w, closeOut, err := outFile(*out)
	if err != nil {
		log.Fatalf("report: %v", err)
	}
	switch *format {
	case "text":
		err = rep.WriteText(w)
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		err = enc.Encode(rep)
	case "html":
		err = rep.WriteHTML(w)
	default:
		log.Fatalf("report: unknown -format %q (want text, json, or html)", *format)
	}
	if err != nil {
		log.Fatalf("report: %v", err)
	}
	if err := closeOut(); err != nil {
		log.Fatalf("report: %v", err)
	}
}

// incidentKinds lists the journal kinds the incident timeline keeps.
var incidentKinds = map[string]bool{
	journal.KindJobRetry:      true,
	journal.KindLeaseReclaim:  true,
	journal.KindBreakerTrip:   true,
	journal.KindWorkerEvict:   true,
	journal.KindNetFault:      true,
	journal.KindLocalFallback: true,
	journal.KindManifestError: true,
}

// BuildReport folds the journal (and optionally the manifest entries'
// telemetry) into the postmortem report.
func BuildReport(j *journal.Journal, entries []expt.Completed, top int) *Report {
	rep := &Report{
		Schema: ReportSchema,
		Tool:   j.Meta.Tool,
		Grid:   j.Meta.Grid,
		Events: len(j.Events),
	}
	if n := len(j.Events); n > 0 {
		rep.WallMS = float64(j.Events[n-1].HostNS-j.Events[0].HostNS) / 1e6
	}

	// One pass over the events: outcome counts, latency samples, worker
	// accounting, cost rows, incidents.
	type wacc struct {
		name                 string
		jobs, cached, failed int
		hostMS               float64
		evicted              bool
	}
	workers := map[string]*wacc{}
	worker := func(id string) *wacc {
		w := workers[id]
		if w == nil {
			w = &wacc{}
			workers[id] = w
		}
		return w
	}
	submitNS := map[string]int64{}
	var samples []float64
	costs := map[[2]string]*CostRow{}
	distributed := false
	for _, ev := range j.Events {
		switch ev.Kind {
		case journal.KindJobSubmit:
			rep.Jobs.Submitted++
			if _, ok := submitNS[ev.Key]; !ok {
				submitNS[ev.Key] = ev.HostNS
			}
		case journal.KindJobRetry:
			rep.Jobs.Retries++
		case journal.KindJobResult:
			switch ev.Status {
			case "ran":
				rep.Jobs.Ran++
			case "cached":
				rep.Jobs.Cached++
			default:
				rep.Jobs.Failed++
			}
			if ev.Status == "ran" || ev.Status == "cached" {
				if ns, ok := submitNS[ev.Key]; ok {
					samples = append(samples, float64(ev.HostNS-ns)/1e6)
				}
				ck := [2]string{ev.Workload, ev.Condition}
				c := costs[ck]
				if c == nil {
					c = &CostRow{Workload: ev.Workload, Condition: ev.Condition}
					costs[ck] = c
				}
				c.Jobs++
				c.HostMS += ev.HostMS
				c.VCycles += ev.VCycles
			}
		case journal.KindWorkerJoin:
			distributed = true
			worker(ev.Worker).name = ev.Detail
		case journal.KindJobReport:
			distributed = true
			w := worker(ev.Worker)
			switch ev.Status {
			case "ran", "cached":
				w.jobs++
				if ev.Status == "cached" {
					w.cached++
				}
				w.hostMS += ev.HostMS
			case "failed":
				w.failed++
			}
		case journal.KindWorkerEvict:
			worker(ev.Worker).evicted = true
		}
		if incidentKinds[ev.Kind] {
			rep.Incidents = append(rep.Incidents, Incident{
				HostNS: ev.HostNS, Kind: ev.Kind, Worker: ev.Worker, Key: ev.Key,
				Detail: ev.Detail, Err: ev.Err, Count: ev.Count, Attempt: ev.Attempt,
			})
		}
	}

	if !distributed {
		// A local pool is one implicit worker; give it the same row shape.
		w := worker("local")
		w.name = "local pool"
		w.jobs = rep.Jobs.Ran + rep.Jobs.Cached
		w.cached = rep.Jobs.Cached
		w.failed = rep.Jobs.Failed
		for _, c := range costs {
			w.hostMS += c.HostMS
		}
	}
	ids := make([]string, 0, len(workers))
	for id := range workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		w := workers[id]
		row := WorkerRow{
			Worker: id, Name: w.name, Jobs: w.jobs, Cached: w.cached,
			Failed: w.failed, HostMS: w.hostMS, Evicted: w.evicted,
		}
		if rep.WallMS > 0 {
			row.UtilPct = w.hostMS / rep.WallMS * 100
		}
		rep.Workers = append(rep.Workers, row)
	}

	ckeys := make([][2]string, 0, len(costs))
	for k := range costs {
		ckeys = append(ckeys, k)
	}
	sort.Slice(ckeys, func(i, j int) bool {
		// Most expensive first; ties by name for determinism.
		a, b := costs[ckeys[i]], costs[ckeys[j]]
		if a.HostMS != b.HostMS {
			return a.HostMS > b.HostMS
		}
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		return a.Condition < b.Condition
	})
	for _, k := range ckeys {
		rep.Costs = append(rep.Costs, *costs[k])
	}

	if len(samples) > 0 {
		sort.Float64s(samples)
		rep.Latency = &Latency{
			Count:  len(samples),
			P50MS:  percentile(samples, 0.50),
			P99MS:  percentile(samples, 0.99),
			P999MS: percentile(samples, 0.999),
			MaxMS:  samples[len(samples)-1],
		}
	}

	var snaps []telemetry.Keyed
	for _, c := range entries {
		if c.Result != nil && c.Result.Telem != nil {
			snaps = append(snaps, telemetry.Keyed{Key: c.Key, Snap: c.Result.Telem})
		}
	}
	if len(snaps) > 0 {
		merged := telemetry.Merge(snaps)
		rep.TraceDropped = merged.TraceDropped
		byStack := map[string]uint64{}
		var total uint64
		for _, s := range merged.Stacks {
			byStack[s.Stack] += s.Cycles
			total += s.Cycles
		}
		stacks := make([]StackRow, 0, len(byStack))
		for stack, cyc := range byStack {
			row := StackRow{Stack: stack, Cycles: cyc}
			if total > 0 {
				row.SharePct = float64(cyc) / float64(total) * 100
			}
			stacks = append(stacks, row)
		}
		sort.Slice(stacks, func(i, j int) bool {
			if stacks[i].Cycles != stacks[j].Cycles {
				return stacks[i].Cycles > stacks[j].Cycles
			}
			return stacks[i].Stack < stacks[j].Stack
		})
		if top > 0 && len(stacks) > top {
			stacks = stacks[:top]
		}
		rep.TopStacks = stacks
	}
	return rep
}

// percentile reads the q-quantile from sorted samples (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// WriteText renders the report for a terminal.
func (r *Report) WriteText(w io.Writer) error {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	p("campaign postmortem: tool=%s\n", r.Tool)
	p("grid: %s\n", r.Grid)
	p("journal: %d event(s) spanning %.1fs host wall clock\n\n", r.Events, r.WallMS/1e3)

	p("jobs: %d submitted, %d ran, %d cached, %d failed, %d retried\n",
		r.Jobs.Submitted, r.Jobs.Ran, r.Jobs.Cached, r.Jobs.Failed, r.Jobs.Retries)
	if r.Latency != nil {
		p("job latency (submit to result, queue wait included): p50 %.1fms  p99 %.1fms  p99.9 %.1fms  max %.1fms over %d job(s)\n",
			r.Latency.P50MS, r.Latency.P99MS, r.Latency.P999MS, r.Latency.MaxMS, r.Latency.Count)
	}

	if len(r.Workers) > 0 {
		p("\nworkers:\n")
		p("  %-10s %-20s %6s %7s %7s %12s %7s\n", "WORKER", "NAME", "JOBS", "CACHED", "FAILED", "HOST-MS", "UTIL")
		for _, row := range r.Workers {
			note := ""
			if row.Evicted {
				note = "  (evicted)"
			}
			p("  %-10s %-20s %6d %7d %7d %12.1f %6.1f%%%s\n",
				row.Worker, row.Name, row.Jobs, row.Cached, row.Failed, row.HostMS, row.UtilPct, note)
		}
	}

	if len(r.Costs) > 0 {
		p("\nhost cost by grid row:\n")
		p("  %-16s %-22s %6s %12s %16s\n", "WORKLOAD", "CONDITION", "JOBS", "HOST-MS", "SIM-CYCLES")
		for _, c := range r.Costs {
			p("  %-16s %-22s %6d %12.1f %16d\n", c.Workload, c.Condition, c.Jobs, c.HostMS, c.VCycles)
		}
	}

	if len(r.Incidents) > 0 {
		p("\nincidents (%d):\n", len(r.Incidents))
		for _, in := range r.Incidents {
			line := fmt.Sprintf("  %10.3fs  %-14s", float64(in.HostNS)/1e9, in.Kind)
			if in.Worker != "" {
				line += " worker=" + in.Worker
			}
			if in.Key != "" {
				line += fmt.Sprintf(" key=%.12s", in.Key)
			}
			if in.Attempt > 0 {
				line += fmt.Sprintf(" attempt=%d", in.Attempt)
			}
			if in.Count > 0 {
				line += fmt.Sprintf(" count=%d", in.Count)
			}
			if in.Detail != "" {
				line += " " + in.Detail
			}
			if in.Err != "" {
				line += " [" + in.Err + "]"
			}
			p("%s\n", line)
		}
	} else {
		p("\nincidents: none\n")
	}

	if len(r.TopStacks) > 0 {
		p("\ntop simulated-cycle attribution:\n")
		for _, s := range r.TopStacks {
			p("  %6.2f%%  %14d  %s\n", s.SharePct, s.Cycles, s.Stack)
		}
		if r.TraceDropped > 0 {
			p("  (trace ring dropped %d event(s) campaign-wide)\n", r.TraceDropped)
		}
	}
	return nil
}

var htmlTmpl = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{{.Tool}} campaign postmortem</title>
<style>
body{font:14px/1.5 system-ui,sans-serif;margin:2em;max-width:72em}
table{border-collapse:collapse;margin:1em 0}
th,td{border:1px solid #ccc;padding:.3em .7em;text-align:left}
th{background:#f0f0f0}
td.num{text-align:right;font-variant-numeric:tabular-nums}
code{background:#f6f6f6;padding:0 .2em}
.evicted{color:#b00}
</style></head><body>
<h1>{{.Tool}} campaign postmortem</h1>
<p><code>{{.Grid}}</code></p>
<p>{{.Events}} journal event(s), {{printf "%.1f" .WallSec}}s host wall clock.</p>
<h2>Jobs</h2>
<p>{{.R.Jobs.Submitted}} submitted &middot; {{.R.Jobs.Ran}} ran &middot; {{.R.Jobs.Cached}} cached &middot; {{.R.Jobs.Failed}} failed &middot; {{.R.Jobs.Retries}} retried</p>
{{if .R.Latency}}<p>Latency (submit&rarr;result, queue wait included): p50 {{printf "%.1f" .R.Latency.P50MS}}ms &middot; p99 {{printf "%.1f" .R.Latency.P99MS}}ms &middot; p99.9 {{printf "%.1f" .R.Latency.P999MS}}ms &middot; max {{printf "%.1f" .R.Latency.MaxMS}}ms over {{.R.Latency.Count}} job(s)</p>{{end}}
{{if .R.Workers}}<h2>Workers</h2>
<table><tr><th>Worker</th><th>Name</th><th>Jobs</th><th>Cached</th><th>Failed</th><th>Host ms</th><th>Utilization</th></tr>
{{range .R.Workers}}<tr{{if .Evicted}} class="evicted"{{end}}><td>{{.Worker}}</td><td>{{.Name}}{{if .Evicted}} (evicted){{end}}</td><td class="num">{{.Jobs}}</td><td class="num">{{.Cached}}</td><td class="num">{{.Failed}}</td><td class="num">{{printf "%.1f" .HostMS}}</td><td class="num">{{printf "%.1f" .UtilPct}}%</td></tr>
{{end}}</table>{{end}}
{{if .R.Costs}}<h2>Host cost by grid row</h2>
<table><tr><th>Workload</th><th>Condition</th><th>Jobs</th><th>Host ms</th><th>Sim cycles</th></tr>
{{range .R.Costs}}<tr><td>{{.Workload}}</td><td>{{.Condition}}</td><td class="num">{{.Jobs}}</td><td class="num">{{printf "%.1f" .HostMS}}</td><td class="num">{{.VCycles}}</td></tr>
{{end}}</table>{{end}}
<h2>Incidents</h2>
{{if .R.Incidents}}<table><tr><th>At</th><th>Kind</th><th>Worker</th><th>Key</th><th>Detail</th></tr>
{{range .R.Incidents}}<tr><td class="num">{{printf "%.3f" .HostSec}}s</td><td>{{.Kind}}</td><td>{{.Worker}}</td><td><code>{{.ShortKey}}</code></td><td>{{.Text}}</td></tr>
{{end}}</table>{{else}}<p>None.</p>{{end}}
{{if .R.TopStacks}}<h2>Top simulated-cycle attribution</h2>
<table><tr><th>Share</th><th>Cycles</th><th>Stack</th></tr>
{{range .R.TopStacks}}<tr><td class="num">{{printf "%.2f" .SharePct}}%</td><td class="num">{{.Cycles}}</td><td><code>{{.Stack}}</code></td></tr>
{{end}}</table>{{end}}
</body></html>
`))

// htmlIncident augments an incident with the template's derived fields.
type htmlIncident struct {
	Incident
}

func (h htmlIncident) HostSec() float64 { return float64(h.HostNS) / 1e9 }
func (h htmlIncident) ShortKey() string {
	if len(h.Key) > 12 {
		return h.Key[:12]
	}
	return h.Key
}
func (h htmlIncident) Text() string {
	var parts []string
	if h.Attempt > 0 {
		parts = append(parts, fmt.Sprintf("attempt=%d", h.Attempt))
	}
	if h.Count > 0 {
		parts = append(parts, fmt.Sprintf("count=%d", h.Count))
	}
	if h.Detail != "" {
		parts = append(parts, h.Detail)
	}
	if h.Err != "" {
		parts = append(parts, "["+h.Err+"]")
	}
	return strings.Join(parts, " ")
}

// WriteHTML renders the report as a standalone page.
func (r *Report) WriteHTML(w io.Writer) error {
	incidents := make([]htmlIncident, len(r.Incidents))
	for i, in := range r.Incidents {
		incidents[i] = htmlIncident{in}
	}
	data := struct {
		Tool, Grid string
		Events     int
		WallSec    float64
		R          struct {
			Jobs      JobsSummary
			Latency   *Latency
			Workers   []WorkerRow
			Costs     []CostRow
			Incidents []htmlIncident
			TopStacks []StackRow
		}
	}{Tool: r.Tool, Grid: r.Grid, Events: r.Events, WallSec: r.WallMS / 1e3}
	data.R.Jobs = r.Jobs
	data.R.Latency = r.Latency
	data.R.Workers = r.Workers
	data.R.Costs = r.Costs
	data.R.Incidents = incidents
	data.R.TopStacks = r.TopStacks
	return htmlTmpl.Execute(w, data)
}
