package expt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/harness"
	"repro/internal/workload"
	"repro/internal/workload/chaos"
	"repro/internal/workload/heapscale"
	"repro/internal/workload/pgbench"
	"repro/internal/workload/qps"
	"repro/internal/workload/spec"
)

// WorkloadRef names a workload declaratively, so a job can be hashed,
// serialized, and re-instantiated. Exactly one Kind is meaningful per ref.
type WorkloadRef struct {
	// Kind is "spec", "pgbench", "qps", "chaos" or "heapscale".
	Kind string `json:"kind"`
	// Name is the SPEC profile name ("xalancbmk", "astar lakes", …).
	Name string `json:"name,omitempty"`
	// Txs is the pgbench transaction count; Rate, when non-zero, is the
	// fixed-rate schedule in tx/sec (Table 1).
	Txs  int     `json:"txs,omitempty"`
	Rate float64 `json:"rate,omitempty"`
	// Measure and Warmup are the gRPC QPS windows, in cycles.
	Measure uint64 `json:"measure,omitempty"`
	Warmup  uint64 `json:"warmup,omitempty"`
	// Ops is the chaos workload's churn step count (also the heapscale
	// workload's full-scale churn count).
	Ops int `json:"ops,omitempty"`
	// Allocs is the heapscale workload's full-scale live allocation count.
	Allocs int `json:"allocs,omitempty"`
}

// SpecWorkload references a SPEC surrogate by profile name ("xalancbmk")
// or bench name (first matching input).
func SpecWorkload(name string) WorkloadRef { return WorkloadRef{Kind: "spec", Name: name} }

// PgbenchWorkload references an unscheduled pgbench run.
func PgbenchWorkload(txs int) WorkloadRef { return WorkloadRef{Kind: "pgbench", Txs: txs} }

// PgbenchRatedWorkload references a fixed-rate pgbench run.
func PgbenchRatedWorkload(txs int, rate float64) WorkloadRef {
	return WorkloadRef{Kind: "pgbench", Txs: txs, Rate: rate}
}

// QPSWorkload references a gRPC QPS run with the given windows (cycles).
func QPSWorkload(measure, warmup uint64) WorkloadRef {
	return WorkloadRef{Kind: "qps", Measure: measure, Warmup: warmup}
}

// ChaosWorkload references an adversarial fault-campaign run (cmd/chaos).
func ChaosWorkload(ops int) WorkloadRef { return WorkloadRef{Kind: "chaos", Ops: ops} }

// HeapScaleWorkload references a heap-scale run: allocs full-scale live
// allocations with ops full-scale churn steps (both divided by the job's
// Scale). Jobs built from this ref should size Machine.MaxFrames with
// heapscale.Workload.MaxFrames.
func HeapScaleWorkload(allocs, ops int) WorkloadRef {
	return WorkloadRef{Kind: "heapscale", Allocs: allocs, Ops: ops}
}

// Instantiate builds a fresh workload instance. Workloads are stateful
// (qps counts its measured messages), so every run needs its own.
func (w WorkloadRef) Instantiate() (workload.Workload, error) {
	switch w.Kind {
	case "spec":
		for _, p := range spec.Profiles() {
			if p.Name() == w.Name {
				return p, nil
			}
		}
		if ps := spec.ByName(w.Name); len(ps) > 0 {
			return ps[0], nil
		}
		return nil, fmt.Errorf("expt: unknown SPEC profile %q", w.Name)
	case "pgbench":
		if w.Rate != 0 {
			return pgbench.NewRated(w.Txs, w.Rate), nil
		}
		return pgbench.New(w.Txs), nil
	case "qps":
		return qps.New(w.Measure, w.Warmup), nil
	case "chaos":
		return chaos.New(w.Ops), nil
	case "heapscale":
		return heapscale.New(w.Allocs, w.Ops), nil
	}
	return nil, fmt.Errorf("expt: unknown workload kind %q", w.Kind)
}

// String names the ref for progress output.
func (w WorkloadRef) String() string {
	switch w.Kind {
	case "spec":
		return w.Name
	case "pgbench":
		if w.Rate != 0 {
			return fmt.Sprintf("pgbench@%.4g", w.Rate)
		}
		return "pgbench"
	case "qps":
		return "grpc-qps"
	case "chaos":
		return "chaos"
	case "heapscale":
		return "heapscale"
	}
	return w.Kind
}

// Job is one cell of a sweep grid: a workload under a condition with a
// fully-specified configuration (including the seed). Jobs are pure data;
// identical jobs produce identical results.
type Job struct {
	Workload WorkloadRef       `json:"workload"`
	Cond     harness.Condition `json:"condition"`
	Cfg      harness.Config    `json:"config"`
}

// Key returns the job's content hash: a hex SHA-256 over the canonical
// JSON encoding of the whole job description. Two jobs share a key exactly
// when they would produce the same result (harness.Run is deterministic
// per description), so the key doubles as the memoization and manifest
// index. The tracer field is excluded: a tracer only observes a run
// (pool jobs trace under -trace-events without changing their result).
func (j Job) Key() string {
	j.Cfg.Trace = nil
	b, err := json.Marshal(j)
	if err != nil {
		// Job descriptions are plain data; marshal cannot fail.
		panic(fmt.Sprintf("expt: job not serializable: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// repeatJobs expands reps jobs for (w, cond, cfg) with the per-rep seed
// derivation seed+i*stride. strideRepeat matches harness.Repeat, so a
// sweep regenerates exactly the runs the sequential figure drivers did.
const (
	strideRepeat = 1000003  // harness.Repeat's cold-boot batches
	strideQPS    = 7919     // Figure 8's per-rep seeds
	strideQPS9   = 104729   // Figure 9's gRPC rows
	strideQPS2   = 15485863 // Table 2's gRPC row
)

func repeatJobs(w WorkloadRef, cond harness.Condition, cfg harness.Config, reps int, stride int64) []Job {
	jobs := make([]Job, 0, reps)
	for i := 0; i < reps; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*stride
		jobs = append(jobs, Job{Workload: w, Cond: cond, Cfg: c})
	}
	return jobs
}
