package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bus"
)

func render(t *testing.T, jobs []TimelineJob, canonical bool) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteTimeline(&b, jobs, canonical); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestEventJSONWireCompat pins the wire form snapshots, manifests and
// dist results carry: a trace array exactly as older manifests hold it
// decodes to the expected events and re-encodes byte-identically.
func TestEventJSONWireCompat(t *testing.T) {
	const wire = `[` +
		`{"cycle":100,"core":0,"agent":"revoker","kind":"epoch","phase":"B","epoch":1},` +
		`{"cycle":900,"core":0,"agent":"revoker","kind":"epoch","phase":"E","epoch":1,"arg":3,"arg2":12},` +
		`{"cycle":2730,"core":3,"agent":"alloc","kind":"chunk-reserve","phase":"i","arg":4294967296,"arg2":1048576},` +
		`{"cycle":4000,"core":-1,"agent":"kernel","kind":"tlb-shootdown","phase":"i","epoch":2},` +
		`{"cycle":4100,"core":1,"agent":"app","kind":"load-barrier-fault","phase":"i","epoch":2,"arg":57005}` +
		`]`
	want := []Event{
		{Cycle: 100, Core: 0, Agent: uint8(bus.AgentRevoker), Kind: KindEpoch, Phase: PhaseBegin, Epoch: 1},
		{Cycle: 900, Core: 0, Agent: uint8(bus.AgentRevoker), Kind: KindEpoch, Phase: PhaseEnd, Epoch: 1, Arg: 3, Arg2: 12},
		{Cycle: 2730, Core: 3, Agent: uint8(bus.AgentAlloc), Kind: KindChunk, Phase: PhaseInstant, Arg: 1 << 32, Arg2: 1 << 20},
		{Cycle: 4000, Core: -1, Agent: uint8(bus.AgentKernel), Kind: KindShootdown, Phase: PhaseInstant, Epoch: 2},
		{Cycle: 4100, Core: 1, Agent: uint8(bus.AgentApp), Kind: KindFault, Phase: PhaseInstant, Epoch: 2, Arg: 0xdead},
	}
	var got []Event
	if err := json.Unmarshal([]byte(wire), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v\nwant    %+v", got, want)
	}
	b, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != wire {
		t.Fatalf("re-encoded\n%s\nwant\n%s", b, wire)
	}

	// Every kind, phase and agent name round-trips.
	for k := Kind(0); k < numKinds; k++ {
		for p := PhaseBegin; p <= PhaseInstant; p++ {
			for a := bus.AgentApp; a <= bus.AgentKernel; a++ {
				ev := Event{Cycle: 7, Core: 2, Agent: uint8(a), Kind: k, Phase: p, Epoch: 3, Arg: 4, Arg2: 5}
				b, err := json.Marshal(ev)
				if err != nil {
					t.Fatal(err)
				}
				var back Event
				if err := json.Unmarshal(b, &back); err != nil {
					t.Fatalf("%s: %v", b, err)
				}
				if back != ev {
					t.Fatalf("%s round-tripped to %+v, want %+v", b, back, ev)
				}
			}
		}
	}

	// An unknown name is a decode error, not a silent zero.
	for _, bad := range []string{
		`{"cycle":1,"core":0,"agent":"gpu","kind":"epoch","phase":"B"}`,
		`{"cycle":1,"core":0,"agent":"app","kind":"nap","phase":"B"}`,
		`{"cycle":1,"core":0,"agent":"app","kind":"epoch","phase":"X"}`,
		`{"cycle":1,"core":0,"kind":"epoch","phase":"B"}`,
	} {
		var ev Event
		if err := json.Unmarshal([]byte(bad), &ev); err == nil {
			t.Errorf("%s decoded to %+v, want an error", bad, ev)
		}
	}
}

// multiCoreRing emits spans and instants on four cores and the machine
// track, so its thread metadata has five entries besides the jobs track.
func multiCoreRing() *Tracer {
	tr := New(1024)
	tr.Begin(100, 2, bus.AgentRevoker, KindEpoch, 1, 0, 0)
	for core := 0; core < 4; core++ {
		c := uint64(core)
		tr.Begin(200+c, core, bus.AgentRevoker, KindSweep, 1, c, 8)
		tr.Instant(300+c, core, bus.AgentApp, KindFault, 1, 0x1000*(c+1), c&1)
		tr.End(400+c, core, bus.AgentRevoker, KindSweep, 1, c, 8)
	}
	tr.Instant(500, -1, bus.AgentKernel, KindShootdown, 1, 0, 0)
	tr.End(900, 2, bus.AgentRevoker, KindEpoch, 2, 17, 42)
	return tr
}

// TestTimelineDeterministic renders one multi-core ring repeatedly; every
// render must be byte-identical (thread metadata in sorted order, not
// map order).
func TestTimelineDeterministic(t *testing.T) {
	jobs := []TimelineJob{{Workload: "astar", Condition: "Reloaded", Seed: 1,
		WallCycles: 1000, HzGHz: 2.5, Trace: multiCoreRing().Events()}}
	first := render(t, jobs, true)
	for i := 1; i < 20; i++ {
		if got := render(t, jobs, true); !bytes.Equal(got, first) {
			t.Fatalf("render %d differs from render 0:\n%s\n---\n%s", i, got, first)
		}
	}
}

// traceRecords decodes a timeline and returns its simulated-event records:
// the X spans and i instants, without metadata and job spans.
func traceRecords(t *testing.T, doc []byte) []map[string]any {
	t.Helper()
	var d struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	var out []map[string]any
	for _, ev := range d.TraceEvents {
		if (ev["ph"] == "X" || ev["ph"] == "i") && ev["cat"] != "job" {
			out = append(out, ev)
		}
	}
	return out
}

// TestTimelineOneRenderer pins that a single-run trace and a campaign
// timeline are one renderer: the same events produce the same X and i
// records, named args included.
func TestTimelineOneRenderer(t *testing.T) {
	evs := multiCoreRing().Events()
	single := traceRecords(t, render(t, []TimelineJob{{Workload: "astar", Condition: "Reloaded", Seed: 1,
		WallCycles: 1000, HzGHz: 2.5, Trace: evs}}, true))
	campaign := render(t, []TimelineJob{
		{Key: "k2", Workload: "hmmer", Condition: "Reloaded", Seed: 2, WallCycles: 700, HzGHz: 2.5, Trace: evs[:4]},
		{Key: "k1", Workload: "astar", Condition: "Reloaded", Seed: 1, WallCycles: 1000, HzGHz: 2.5, Trace: evs},
	}, true)
	recs := traceRecords(t, campaign)
	if len(single) == 0 || len(recs) <= len(single) {
		t.Fatalf("single run has %d records, campaign %d", len(single), len(recs))
	}
	// k1 sorts first, so its records open the campaign at offset zero.
	if !reflect.DeepEqual(recs[:len(single)], single) {
		t.Fatalf("campaign records differ from the single run's:\n%v\n---\n%v", recs[:len(single)], single)
	}
	for _, want := range []string{`"capsRevoked":17`, `"pagesVisited":42`, `"worker":3`, `"va":"0x4000"`} {
		if !strings.Contains(string(campaign), want) {
			t.Errorf("campaign timeline lacks named arg %s", want)
		}
	}
}

// TestTimelineCanonicalIdentity renders the same jobs in different
// orders with different host-side attributes; canonical timelines must
// be byte-identical while live ones reflect the worker split.
func TestTimelineCanonicalIdentity(t *testing.T) {
	mkJob := func(key, worker string, hostMS float64) TimelineJob {
		return TimelineJob{
			Key: key, Workload: "wl", Condition: "cond", Seed: 7,
			Worker: worker, HostMS: hostMS, WallCycles: 5000, HzGHz: 2.5,
			Trace: []Event{
				{Cycle: 100, Core: 0, Agent: uint8(bus.AgentRevoker), Kind: KindEpoch, Phase: PhaseBegin, Epoch: 1},
				{Cycle: 900, Core: 0, Agent: uint8(bus.AgentRevoker), Kind: KindEpoch, Phase: PhaseEnd, Epoch: 1, Arg: 3},
				{Cycle: 400, Core: -1, Agent: uint8(bus.AgentKernel), Kind: KindShootdown, Phase: PhaseInstant, Epoch: 1},
			},
		}
	}

	local := []TimelineJob{mkJob("k1", "", 5), mkJob("k2", "", 6)}
	dist := []TimelineJob{mkJob("k2", "w002", 31), mkJob("k1", "w001", 17)}

	if got, want := render(t, dist, true), render(t, local, true); !bytes.Equal(got, want) {
		t.Fatalf("canonical timelines differ:\n--- dist\n%s\n--- local\n%s", got, want)
	}
	live := string(render(t, dist, false))
	for _, want := range []string{`"w001"`, `"w002"`, "process_name", "host_ms"} {
		if !strings.Contains(live, want) {
			t.Fatalf("live timeline missing %s:\n%s", want, live)
		}
	}
	canon := string(render(t, dist, true))
	for _, forbidden := range []string{"host_ms", "w001", "worker"} {
		if strings.Contains(canon, forbidden) {
			t.Fatalf("canonical timeline leaks host detail %q:\n%s", forbidden, canon)
		}
	}
	// Span pairing: the B/E pair must appear as one complete event.
	if !strings.Contains(canon, `"ph":"X"`) || !strings.Contains(canon, `"epoch"`) {
		t.Fatalf("canonical timeline missing paired spans:\n%s", canon)
	}
}
