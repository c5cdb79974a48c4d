package expt

import "repro/internal/harness"

// JobResult is the record of one run: harness.Result itself, which
// manifests, dist results and sweep documents carry as JSON.
type JobResult = harness.Result

// FromHarness sets r's seed and returns it. harness.Run already records
// the seed, so this only keeps callers written against the old flattening
// converter compiling.
func FromHarness(r *harness.Result, seed int64) *JobResult {
	r.Seed = seed
	return r
}
