package expt

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestJobResultWireForm pins the run record's JSON: key names, key order
// and omission rules, which old manifests and fleets of mixed builds
// depend on. Each file under testdata/wire is json.Marshal of a RunJob
// result (telemetry off) written by an earlier build:
//
//   - pgbench.json: PgbenchWorkload(40) under Cornucopia, PgbenchConfig
//     at scale 32 (latencies; no fault, oracle or recovery);
//   - chaos-worker-crash.json: ChaosWorkload(600) under Reloaded with 3
//     workers, cmd/chaos's campaign config at seed 2 and worker-crash
//     faults (fault, oracle and recovery reports);
//   - qps.json: QPSWorkload(5e6, 5e5) under QPSConditions()[0],
//     QPSConfig at scale 256 (latencies and messages).
//
// Decoding each into a JobResult and encoding it again must give the
// same bytes.
func TestJobResultWireForm(t *testing.T) {
	for _, tc := range []struct {
		file string
		// has reports whether the record carries what the file pins.
		has func(*JobResult) bool
	}{
		{"pgbench.json", func(r *JobResult) bool {
			return len(r.LatCycles) > 0 && r.Recovery.Total() == 0 && r.Fault == nil
		}},
		{"chaos-worker-crash.json", func(r *JobResult) bool {
			return r.Recovery.Total() > 0 && r.Fault != nil && r.Oracle != nil && len(r.LatCycles) == 0
		}},
		{"qps.json", func(r *JobResult) bool {
			return r.Messages > 0 && r.MeasureCycles > 0 && len(r.LatCycles) > 0
		}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "wire", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			want = bytes.TrimSuffix(want, []byte("\n"))
			var r JobResult
			if err := json.Unmarshal(want, &r); err != nil {
				t.Fatal(err)
			}
			if !tc.has(&r) {
				t.Fatalf("decoded record lacks what %s pins: %+v", tc.file, r)
			}
			if len(r.DRAMByAgent) != 4 {
				t.Fatalf("dram_by_agent = %v, want all four agents", r.DRAMByAgent)
			}
			got, err := json.Marshal(&r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("re-encoded record differs from %s:\n got %s\nwant %s", tc.file, got, want)
			}
		})
	}
}
