package harness

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/revoke"
	"repro/internal/trace"
	"repro/internal/workload/pgbench"
)

// TestReloadedPgbenchTrace is the tracing acceptance check: a Reloaded
// pgbench run with tracing enabled must produce a Chrome trace_event JSON
// that shows, for at least one epoch, the STW span, concurrent sweep
// spans per worker, and at least one load-barrier fault instant carrying
// its faulting VA.
func TestReloadedPgbenchTrace(t *testing.T) {
	cfg := PgbenchConfig()
	cfg.Trace = trace.New(1 << 18)
	cond := Condition{
		Name: "Reloaded", Shimmed: true, Strategy: revoke.Reloaded,
		RevokerCores: []int{2}, Workers: 2,
	}
	r, err := Run(pgbench.New(1500), cond, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Trace != cfg.Trace {
		t.Fatal("Result.Trace does not carry the run's tracer")
	}
	if len(r.Epochs) == 0 {
		t.Fatal("run produced no revocation epochs")
	}

	// Structural checks on the raw events: per epoch, one STW span and
	// the per-worker sweep slices; fault instants with a VA.
	type epochShape struct {
		stwBegin, stwEnd bool
		sweepWorkers     map[uint64]bool
		faults           int
	}
	shapes := map[uint64]*epochShape{}
	shape := func(e uint64) *epochShape {
		if shapes[e] == nil {
			shapes[e] = &epochShape{sweepWorkers: map[uint64]bool{}}
		}
		return shapes[e]
	}
	for _, ev := range r.Trace.Events() {
		switch ev.Kind {
		case trace.KindSTW:
			if ev.Phase == trace.PhaseBegin {
				shape(ev.Epoch).stwBegin = true
			} else {
				shape(ev.Epoch).stwEnd = true
			}
		case trace.KindSweep:
			if ev.Phase == trace.PhaseBegin {
				shape(ev.Epoch).sweepWorkers[ev.Arg] = true
			}
		case trace.KindFault:
			if ev.Arg == 0 {
				t.Error("fault instant without a faulting VA")
			}
			shape(ev.Epoch).faults++
		}
	}
	complete := 0
	for _, sh := range shapes {
		if sh.stwBegin && sh.stwEnd && len(sh.sweepWorkers) >= 2 && sh.faults >= 1 {
			complete++
		}
	}
	if complete == 0 {
		t.Fatalf("no epoch shows STW span + ≥2 worker sweep slices + ≥1 fault; epochs seen: %d", len(shapes))
	}

	// The Chrome export must be valid JSON with the same content visible:
	// X spans for stop-the-world and per-worker sweeps, fault instants
	// with a hex VA arg.
	var buf bytes.Buffer
	if err := trace.WriteTimeline(&buf, []trace.TimelineJob{{
		Workload: r.Workload, Condition: r.Condition, Seed: cfg.Seed,
		WallCycles: r.WallCycles, HzGHz: r.HzGHz, Trace: r.Trace.Events(),
	}}, true); err != nil {
		t.Fatalf("WriteTimeline: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	var stwSpans, sweepSpans, faultVA int
	sweepByWorker := map[any]bool{}
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Cat == "stop-the-world" && ev.Ph == "X":
			stwSpans++
		case ev.Cat == "sweep" && ev.Ph == "X":
			sweepSpans++
			sweepByWorker[ev.Args["worker"]] = true
		case ev.Cat == "load-barrier-fault" && ev.Ph == "i":
			if va, ok := ev.Args["va"].(string); ok && len(va) > 2 && va[:2] == "0x" {
				faultVA++
			}
		}
	}
	if stwSpans == 0 {
		t.Error("chrome export has no stop-the-world X span")
	}
	if len(sweepByWorker) < 2 {
		t.Errorf("chrome export shows %d distinct sweep workers, want ≥2", len(sweepByWorker))
	}
	if faultVA == 0 {
		t.Error("chrome export has no load-barrier fault instant with a hex VA")
	}
}

// TestTracingDisabledIsFree pins the no-op contract: a run with no tracer
// configured leaves Result.Trace nil and behaves identically.
func TestTracingDisabledIsFree(t *testing.T) {
	cfg := fastCfg()
	cond := StandardConditions()[0]
	r1, err := Run(pgbench.New(200), cond, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Trace != nil {
		t.Fatal("Result.Trace should be nil when tracing is off")
	}
	cfg2 := cfg
	cfg2.Trace = trace.New(1 << 14)
	r2, err := Run(pgbench.New(200), cond, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	// Tracing must not perturb the simulation: bit-identical virtual time.
	if r1.WallCycles != r2.WallCycles || r1.CPUCycles != r2.CPUCycles {
		t.Errorf("tracing changed the run: wall %d vs %d, cpu %d vs %d",
			r1.WallCycles, r2.WallCycles, r1.CPUCycles, r2.CPUCycles)
	}
}
