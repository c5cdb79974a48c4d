// Package expt is the experiment-sweep orchestrator: it expands the
// paper's evaluation (§5) into a grid of independent (workload, condition,
// seed) jobs, executes them on a bounded host worker pool with per-job
// timeout, panic capture and bounded retry, and aggregates the completed
// results into the paper's tables plus a machine-readable JSON document.
//
// Because harness.Run is deterministic per seed and every job boots its own
// cold machine, the grid is embarrassingly parallel: sharding it across
// host cores preserves results exactly, so a sweep's aggregated output is
// byte-identical at any worker count.
//
// A Pool memoizes jobs by a content hash of the full job description
// (workload reference, condition, configuration, seed), so overlapping
// figure grids share runs within one sweep. Attaching a Manifest persists
// every completed job to disk under the same key; an interrupted or
// re-invoked sweep then resumes from completed jobs instead of recomputing
// them.
//
// The figure registry (Figures, Generate) holds one entry per table and
// figure of the paper's evaluation; cmd/sweep regenerates any of them, or
// the whole evaluation.
package expt
