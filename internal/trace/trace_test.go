package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bus"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	// None of these may panic.
	tr.Begin(1, 0, bus.AgentApp, KindEpoch, 0, 0, 0)
	tr.End(2, 0, bus.AgentApp, KindEpoch, 0, 0, 0)
	tr.Instant(3, 0, bus.AgentApp, KindFault, 0, 0xbeef, 0)
	tr.Emit(Event{})
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer retained events")
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatalf("nil WriteCSV: %v", err)
	}
}

func TestRingOrderAndWrap(t *testing.T) {
	tr := New(1) // rounds up to the 1024 minimum
	if got := len(tr.buf); got != 1024 {
		t.Fatalf("capacity = %d, want 1024", got)
	}
	total := 1500
	for i := 0; i < total; i++ {
		tr.Instant(uint64(i), 0, bus.AgentApp, KindPaint, 0, uint64(i), 0)
	}
	if tr.Len() != 1024 {
		t.Fatalf("Len = %d, want 1024", tr.Len())
	}
	if tr.Dropped() != uint64(total-1024) {
		t.Fatalf("Dropped = %d, want %d", tr.Dropped(), total-1024)
	}
	evs := tr.Events()
	for i, ev := range evs {
		want := uint64(total - 1024 + i)
		if ev.Cycle != want {
			t.Fatalf("event %d cycle = %d, want %d (not oldest-first)", i, ev.Cycle, want)
		}
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestWriteChromePairsSpans(t *testing.T) {
	tr := New(1024)
	// A matched epoch span containing a matched STW span, one fault
	// instant, and one orphaned End (its Begin "lost" to wrap).
	tr.Begin(1000, 2, bus.AgentRevoker, KindEpoch, 4, 0, 0)
	tr.Begin(1100, 2, bus.AgentKernel, KindSTW, 5, 0, 0)
	tr.End(1600, 2, bus.AgentKernel, KindSTW, 5, 0, 0)
	tr.Instant(2000, 3, bus.AgentKernel, KindFault, 5, 0xdead_beef, 1)
	tr.End(9000, 2, bus.AgentRevoker, KindEpoch, 6, 17, 42)
	tr.End(9100, 1, bus.AgentRevoker, KindSweep, 6, 0, 0) // orphan

	buf := render(t, []TimelineJob{{WallCycles: 10000, HzGHz: 2.5, Trace: tr.Events()}}, true)
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	var spans, instants, orphans int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			if ev["cat"] == "job" {
				continue // the run's own span on the jobs track
			}
			spans++
			if ev["cat"] == "epoch" {
				if ev["dur"].(float64) <= 0 {
					t.Fatalf("epoch span has non-positive dur: %v", ev)
				}
				args := ev["args"].(map[string]any)
				if args["capsRevoked"].(float64) != 17 {
					t.Fatalf("epoch End args not carried: %v", args)
				}
			}
			if ev["cat"] == "sweep" {
				orphans++
			}
		case "i":
			instants++
			args := ev["args"].(map[string]any)
			if args["va"] != "0xdeadbeef" {
				t.Fatalf("fault VA not rendered in hex: %v", args)
			}
		}
	}
	if spans != 2 {
		t.Fatalf("got %d X spans, want 2 (epoch + STW)", spans)
	}
	if instants != 1 {
		t.Fatalf("got %d instants, want 1", instants)
	}
	if orphans != 0 {
		t.Fatal("orphaned End was emitted")
	}
}

func TestWriteCSV(t *testing.T) {
	tr := New(1024)
	tr.Begin(10, 2, bus.AgentRevoker, KindSweep, 2, 1, 8)
	tr.End(50, 2, bus.AgentRevoker, KindSweep, 2, 1, 8)
	tr.Instant(60, -1, bus.AgentKernel, KindShootdown, 3, 0, 0)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want header + 3 rows:\n%s", len(lines), buf.String())
	}
	if lines[0] != "cycle,phase,kind,core,agent,epoch,arg,arg2,detail" {
		t.Fatalf("bad header: %q", lines[0])
	}
	// The detail column holds "worker=1, pages=8" — an embedded comma, so
	// RFC 4180 requires the field be quoted.
	if lines[1] != `10,B,sweep,2,revoker,2,1,8,"worker=1, pages=8"` {
		t.Fatalf("bad row: %q", lines[1])
	}
	if lines[3] != "60,i,tlb-shootdown,-1,kernel,3,0,0," {
		t.Fatalf("bad machine-wide row: %q", lines[3])
	}
}

// TestWriteCSVRoundTrip parses the exporter's output with encoding/csv
// and checks every field survives, including quoted detail strings with
// embedded commas and hex-rendered addresses.
func TestWriteCSVRoundTrip(t *testing.T) {
	tr := New(1024)
	evs := []Event{
		{Cycle: 10, Phase: PhaseBegin, Kind: KindSweep, Core: 2, Agent: uint8(bus.AgentRevoker), Epoch: 2, Arg: 1, Arg2: 8},
		{Cycle: 25, Phase: PhaseInstant, Kind: KindFault, Core: 3, Agent: uint8(bus.AgentKernel), Epoch: 2, Arg: 0xdead_beef, Arg2: 1},
		{Cycle: 60, Phase: PhaseInstant, Kind: KindShootdown, Core: -1, Agent: uint8(bus.AgentKernel), Epoch: 3},
	}
	for _, ev := range evs {
		tr.Emit(ev)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid RFC 4180 CSV: %v", err)
	}
	if len(recs) != len(evs)+1 {
		t.Fatalf("got %d records, want %d", len(recs), len(evs)+1)
	}
	for i, ev := range evs {
		rec := recs[i+1]
		got := Event{
			Cycle: parseU(t, rec[0]),
			Epoch: parseU(t, rec[5]),
			Arg:   parseU(t, rec[6]),
			Arg2:  parseU(t, rec[7]),
			Core:  int16(parseI(t, rec[3])),
			Agent: ev.Agent, // agent round-trips by name, checked below
			Kind:  ev.Kind,
			Phase: ev.Phase,
		}
		if got != ev {
			t.Errorf("row %d round-tripped to %+v, want %+v", i, got, ev)
		}
		if rec[1] != ev.Phase.String() || rec[2] != ev.Kind.String() {
			t.Errorf("row %d phase/kind = %q/%q", i, rec[1], rec[2])
		}
		if rec[4] != bus.Agent(ev.Agent).String() {
			t.Errorf("row %d agent = %q, want %q", i, rec[4], bus.Agent(ev.Agent))
		}
		if rec[8] != ev.Detail() {
			t.Errorf("row %d detail = %q, want %q", i, rec[8], ev.Detail())
		}
	}
	// The fault row's detail must render the VA in hex.
	if want := "va=0xdeadbeef, concurrentVisit=1"; recs[2][8] != want {
		t.Errorf("fault detail = %q, want %q", recs[2][8], want)
	}
}

func parseU(t *testing.T, s string) uint64 {
	t.Helper()
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("ParseUint(%q): %v", s, err)
	}
	return v
}

func parseI(t *testing.T, s string) int64 {
	t.Helper()
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("ParseInt(%q): %v", s, err)
	}
	return v
}

func TestKindStringsDistinct(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); k < numKinds; k++ {
		s := k.String()
		if s == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("kinds %d and %d share name %q", prev, k, s)
		}
		seen[s] = k
	}
}

// BenchmarkEmitDisabled pins the disabled-path cost the acceptance
// criterion cares about: one nil test per emit site.
func BenchmarkEmitDisabled(b *testing.B) {
	var tr *Tracer
	for i := 0; i < b.N; i++ {
		tr.Instant(uint64(i), 3, bus.AgentApp, KindFault, 0, 0x1000, 0)
	}
}

// BenchmarkEmitEnabled is the enabled-path cost: one ring store.
func BenchmarkEmitEnabled(b *testing.B) {
	tr := New(1 << 16)
	for i := 0; i < b.N; i++ {
		tr.Instant(uint64(i), 3, bus.AgentApp, KindFault, 0, 0x1000, 0)
	}
}
