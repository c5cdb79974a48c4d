package cliflags

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/expt"
	"repro/internal/journal"
)

// TestAtomicWriteFileNeverTorn pins the -addr-file contract scripts rely
// on: a reader polling the path must only ever observe a complete write —
// never a prefix, never a mix of two writes — no matter how the writer
// interleaves.
func TestAtomicWriteFileNeverTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coordinator.addr")
	short := []byte("127.0.0.1:9977\n")
	long := []byte("this-is-a-much-longer-host-name.example.internal:59999\n")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			data := short
			if i%2 == 1 {
				data = long
			}
			if err := AtomicWriteFile(path, data, 0o644); err != nil {
				t.Errorf("AtomicWriteFile: %v", err)
				return
			}
		}
	}()

	deadline := time.Now().Add(300 * time.Millisecond)
	reads := 0
	for time.Now().Before(deadline) {
		got, err := os.ReadFile(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue // before the first write lands
			}
			t.Fatalf("read: %v", err)
		}
		if string(got) != string(short) && string(got) != string(long) {
			t.Fatalf("torn read: %q", got)
		}
		reads++
	}
	close(stop)
	wg.Wait()
	if reads == 0 {
		t.Fatal("reader never observed a write")
	}
	// No temp-file litter left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after writes, want just the target", len(entries))
	}
}

// TestAtomicWriteFileMode pins that the requested permissions land on the
// final file.
func TestAtomicWriteFileMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "addr")
	if err := AtomicWriteFile(path, []byte("x\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o600 {
		t.Fatalf("mode = %v, want 0600", fi.Mode().Perm())
	}
}

// TestBackoffFlagAssembly pins the flag-to-policy translation: every
// combination of the retry flags yields the one doubling expt.Backoff,
// -retry-backoff alone spaces retries B then 2B, and without it (a
// jitter-only invocation included) retries are immediate.
func TestBackoffFlagAssembly(t *testing.T) {
	f := &Flags{RetryBackoff: 50 * time.Millisecond}
	b := f.Backoff()
	if b != (expt.Backoff{Base: 50 * time.Millisecond, Factor: 2}) {
		t.Fatalf("-retry-backoff alone: Backoff = %+v", b)
	}
	if d1, d2 := b.Delay(1), b.Delay(2); d1 != 50*time.Millisecond || d2 != 100*time.Millisecond {
		t.Fatalf("-retry-backoff alone spaces retries %v, %v; want 50ms, 100ms", d1, d2)
	}
	f = &Flags{RetryBackoff: 50 * time.Millisecond, RetryBackoffMax: time.Second, RetryJitter: 0.2, NetFaultSeed: 9}
	want := expt.Backoff{Base: 50 * time.Millisecond, Factor: 2, Max: time.Second, Jitter: 0.2, Seed: 9}
	if b := f.Backoff(); b != want {
		t.Fatalf("Backoff = %+v, want %+v", b, want)
	}
	f = &Flags{RetryJitter: 0.5}
	if d := f.Backoff().Delay(1); d != 0 {
		t.Fatalf("jitter-only first retry waits %v, want immediate", d)
	}
}

// TestNetFaultSpecAssembly pins the -netfault flag translation.
func TestNetFaultSpecAssembly(t *testing.T) {
	f := &Flags{}
	if s := f.NetFaultSpec(); s != nil {
		t.Fatalf("empty -netfault produced a spec: %+v", s)
	}
	f = &Flags{
		NetFault:              "drop,partition",
		NetFaultSeed:          5,
		NetFaultRate:          0.25,
		NetFaultMax:           10,
		NetFaultDelay:         3 * time.Millisecond,
		NetFaultPartitionFrac: 0.5,
	}
	s := f.NetFaultSpec()
	if s == nil || s.Seed != 5 || s.Rate != 0.25 || s.MaxPerClass != 10 ||
		s.Delay != 3*time.Millisecond || s.PartitionFrac != 0.5 {
		t.Fatalf("spec = %+v", s)
	}
	if len(s.Classes) != 2 || s.Classes[0] != "drop" || s.Classes[1] != "partition" {
		t.Fatalf("classes = %v", s.Classes)
	}
}

// TestFormatEvent pins the -progress line for each event the pool hands
// to Progress: results, retries and manifest errors.
func TestFormatEvent(t *testing.T) {
	for _, tc := range []struct {
		ev   journal.Event
		want string
	}{
		{journal.Event{Kind: journal.KindJobResult, Workload: "astar", Condition: "Reloaded", Seed: 1,
			Status: "ran", Attempt: 1, HostMS: 1250, Done: 2, Total: 5},
			"[2/5] ran    astar under Reloaded seed=1 (1 attempt(s), 1.2s)"},
		{journal.Event{Kind: journal.KindJobRetry, Workload: "hmmer", Condition: "Baseline", Seed: 3,
			Status: "retry", Attempt: 1, HostMS: 40, Err: "timeout"},
			"[0/0] retry  hmmer under Baseline seed=3 (1 attempt(s), 0.0s) [timeout]"},
		{journal.Event{Kind: journal.KindManifestError, Workload: "astar", Condition: "Reloaded", Seed: 1,
			Attempt: 1, Err: "disk full"},
			"[0/0] manifest-error astar under Reloaded seed=1 (1 attempt(s), 0.0s) [disk full]"},
	} {
		if got := FormatEvent(tc.ev); got != tc.want {
			t.Errorf("FormatEvent = %q, want %q", got, tc.want)
		}
	}
}
