package expt

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/harness"
)

func TestDocumentRoundTrip(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 2})
	p.run = func(j Job) (*JobResult, time.Duration, error) { return fakeResult(j), 0, nil }
	jobs := []Job{fakeJob("astar", 1), fakeJob("astar", 1000004), fakeJob("omnetpp", 1)}
	p.Prefetch(jobs)
	for _, j := range jobs {
		if _, err := p.Get(j); err != nil {
			t.Fatal(err)
		}
	}

	tb := &harness.Table{
		Title:  "Figure X: test",
		Header: []string{"benchmark", "value"},
	}
	tb.AddRow("astar", "+1.0%")
	tb.AddNote("a note")
	doc := BuildDocument(p, []FigureResult{NewFigureResult("figX", tb)}, 2, 2, 64)

	var buf bytes.Buffer
	if err := doc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var got Document
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("document does not round-trip: %v", err)
	}
	if got.Schema != Schema {
		t.Fatalf("schema = %q, want %q", got.Schema, Schema)
	}
	if got.Workers != 2 || got.Reps != 2 || got.Scale != 64 {
		t.Fatalf("invocation fields = %d/%d/%d", got.Workers, got.Reps, got.Scale)
	}
	if len(got.Jobs) != 3 {
		t.Fatalf("jobs = %d, want 3", len(got.Jobs))
	}
	for _, js := range got.Jobs {
		if js.Key == "" || js.Workload == "" || js.Condition == "" {
			t.Fatalf("incomplete job summary: %+v", js)
		}
	}
	if len(got.Figures) != 1 || got.Figures[0].ID != "figX" {
		t.Fatalf("figures = %+v", got.Figures)
	}
	if got.Figures[0].Text != tb.String() {
		t.Fatal("rendered table text lost in round-trip")
	}
	if got.Pool.Executed != 3 {
		t.Fatalf("pool stats = %+v", got.Pool)
	}
	// Aggregates: two cells (astar and omnetpp under Reloaded), six
	// metrics each, ordered by workload.
	if len(got.Aggregates) != 2*len(aggregateMetrics) {
		t.Fatalf("aggregates = %d, want %d", len(got.Aggregates), 2*len(aggregateMetrics))
	}
	if got.Aggregates[0].Workload != "astar" || got.Aggregates[0].N != 2 {
		t.Fatalf("first aggregate = %+v", got.Aggregates[0])
	}
	// Re-marshal equality: the document is stable data, so a second encode
	// of the decoded form is byte-identical.
	var buf2 bytes.Buffer
	if err := got.Write(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("decode+re-encode changed the document")
	}
}

func TestJobResultHarnessRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	j := Job{
		Workload: PgbenchWorkload(200),
		Cond:     harness.StandardConditions()[1],
		Cfg:      harness.PgbenchConfig(),
	}
	jr, err := RunJob(j, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(jr)
	if err != nil {
		t.Fatal(err)
	}
	var back JobResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jr, &back) {
		t.Fatalf("result changed across JSON (float64s must round-trip exactly):\n%+v\n%+v", jr, &back)
	}
	if len(back.LatCycles) == 0 || len(back.Epochs) == 0 {
		t.Fatalf("run recorded %d latencies and %d epochs, want both", len(back.LatCycles), len(back.Epochs))
	}
}
