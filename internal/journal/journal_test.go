package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func testWriter(t *testing.T) (*Writer, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "campaign.journal")
	w, err := Create(path, "sweep", "grid-A")
	if err != nil {
		t.Fatal(err)
	}
	return w, path
}

func TestNilWriterIsDisabled(t *testing.T) {
	var w *Writer
	if w.Enabled() {
		t.Fatal("nil writer reports enabled")
	}
	w.Emit(Event{Kind: KindJobSubmit, Key: "k"}) // must not panic
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	w, path := testWriter(t)
	w.Emit(Event{Kind: KindJobSubmit, Key: "k1", Workload: "wl", Condition: "cond", Seed: 42})
	w.Emit(Event{Kind: KindJobStart, Key: "k1", Attempt: 1})
	w.Emit(Event{Kind: KindJobRetry, Key: "k1", Attempt: 1, Err: "timeout"})
	w.Emit(Event{Kind: KindJobResult, Key: "k1", Workload: "wl", Condition: "cond", Seed: 42,
		Status: "ran", Attempt: 2, HostMS: 12.5, VCycles: 9000})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	j, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.Meta.Schema != Schema || j.Meta.Tool != "sweep" || j.Meta.Grid != "grid-A" {
		t.Fatalf("meta = %+v", j.Meta)
	}
	if len(j.Events) != 4 {
		t.Fatalf("got %d events, want 4", len(j.Events))
	}
	for i, ev := range j.Events {
		if ev.Seq != i+1 {
			t.Fatalf("event %d: seq %d", i, ev.Seq)
		}
	}
	if got := j.Events[3]; got.VCycles != 9000 || got.Status != "ran" || got.HostMS != 12.5 {
		t.Fatalf("result event = %+v", got)
	}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	for _, tc := range []struct {
		name string
		j    Journal
		want string
	}{
		{"wrong schema", Journal{Meta: Meta{Schema: "bogus/v9"}}, "schema"},
		{"seq regression", Journal{Meta: Meta{Schema: Schema}, Events: []Event{
			{Seq: 2, Kind: KindWorkerJoin}, {Seq: 2, Kind: KindWorkerJoin},
		}}, "seq"},
		{"host time backwards", Journal{Meta: Meta{Schema: Schema}, Events: []Event{
			{Seq: 1, HostNS: 50, Kind: KindWorkerJoin}, {Seq: 2, HostNS: 10, Kind: KindWorkerJoin},
		}}, "host_ns"},
		{"unknown kind", Journal{Meta: Meta{Schema: Schema}, Events: []Event{
			{Seq: 1, Kind: "job-teleport"},
		}}, "unknown kind"},
		{"result without submit", Journal{Meta: Meta{Schema: Schema}, Events: []Event{
			{Seq: 1, Kind: KindJobResult, Key: "k", Status: "ran"},
		}}, "before job-submit"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.j.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestTornTailRepair mirrors the manifest test: a writer that died
// mid-append leaves a torn final line; Create must truncate it so the
// next append does not glue onto it, and Read must tolerate it.
func TestTornTailRepair(t *testing.T) {
	w, path := testWriter(t)
	w.Emit(Event{Kind: KindJobSubmit, Key: "k1"})
	w.Emit(Event{Kind: KindJobResult, Key: "k1", Status: "ran", VCycles: 7})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: half a JSON line, no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"kind":"job-res`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Read tolerates the torn tail as-is.
	j, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Events) != 2 {
		t.Fatalf("got %d events, want 2", len(j.Events))
	}

	// Create repairs it and resumes seq/host_ns monotonically.
	w2, err := Create(path, "sweep", "grid-A")
	if err != nil {
		t.Fatal(err)
	}
	w2.Emit(Event{Kind: KindWorkerJoin, Worker: "w001"})
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	j, err = Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(j.Events) != 3 {
		t.Fatalf("after repair+append: %d events, want 3", len(j.Events))
	}
	if j.Events[2].Seq != 3 || j.Events[2].Kind != KindWorkerJoin {
		t.Fatalf("appended event = %+v", j.Events[2])
	}
}

func TestCreateRefusesForeignGrid(t *testing.T) {
	w, path := testWriter(t)
	w.Emit(Event{Kind: KindJobSubmit, Key: "k"})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(path, "sweep", "grid-B"); err == nil {
		t.Fatal("foreign grid accepted")
	}
	if _, err := Create(path, "chaos", "grid-A"); err == nil {
		t.Fatal("foreign tool accepted")
	}
	// Matching header resumes fine.
	w2, err := Create(path, "sweep", "grid-A")
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
}

// TestCanonicalDeterminism feeds the same completed work through two
// journals with wildly different host-side histories (ordering,
// retries, workers, cache replays, fleet events) and requires identical
// canonical bytes.
func TestCanonicalDeterminism(t *testing.T) {
	result := func(key string, cycles uint64) Event {
		return Event{Kind: KindJobResult, Key: key, Workload: "wl", Condition: "cond",
			Seed: 1, VCycles: cycles}
	}
	run := func(seq []Event) []byte {
		path := filepath.Join(t.TempDir(), "j")
		w, err := Create(path, "sweep", "g")
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range seq {
			w.Emit(ev)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		j, err := Read(path)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := j.WriteCanonical(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}

	a := run([]Event{
		{Kind: KindJobSubmit, Key: "k1"}, {Kind: KindJobSubmit, Key: "k2"},
		func() Event { e := result("k1", 100); e.Status = "ran"; e.HostMS = 5; e.Attempt = 1; return e }(),
		func() Event { e := result("k2", 200); e.Status = "ran"; e.HostMS = 9; e.Attempt = 1; return e }(),
	})
	b := run([]Event{
		{Kind: KindWorkerJoin, Worker: "w001"},
		{Kind: KindJobSubmit, Key: "k2"}, {Kind: KindJobSubmit, Key: "k1"},
		{Kind: KindJobLease, Key: "k2", Worker: "w001", Detail: "lease-000001"},
		{Kind: KindJobRetry, Key: "k2", Attempt: 1, Err: "timeout"},
		func() Event { e := result("k2", 200); e.Status = "cached"; e.HostMS = 2; e.Attempt = 2; e.Worker = "w001"; return e }(),
		{Kind: KindBreakerTrip, Worker: "w001"},
		func() Event { e := result("k1", 100); e.Status = "ran"; e.HostMS = 55; e.Attempt = 1; e.Worker = "w001"; return e }(),
		{Kind: KindWorkerEvict, Worker: "w001"},
	})
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical journals differ:\n--- a\n%s\n--- b\n%s", a, b)
	}
	// Failed results must not appear in the canonical view.
	c := run([]Event{
		{Kind: KindJobSubmit, Key: "k3"},
		{Kind: KindJobResult, Key: "k3", Status: "failed", Err: "panic: boom"},
	})
	if strings.Contains(string(c), "k3") {
		t.Fatalf("failed job leaked into canonical view:\n%s", c)
	}
}

// TestConcurrentEmit exercises the Writer under the race detector: many
// goroutines emitting while another polls Err, as pool workers and
// coordinator handlers do.
func TestConcurrentEmit(t *testing.T) {
	w, path := testWriter(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				w.Emit(Event{Kind: KindJobStart, Key: fmt.Sprintf("g%d-%d", g, i)})
				_ = w.Err()
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	j, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(j.Events) != 400 {
		t.Fatalf("got %d events, want 400", len(j.Events))
	}
}
