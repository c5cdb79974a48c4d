// Package repro is a from-scratch, simulation-based reproduction of
// "Cornucopia Reloaded: Load Barriers for CHERI Heap Temporal Safety"
// (Filardo et al., ASPLOS 2024).
//
// The root package holds only the ablation benchmarks (bench_test.go) for
// the design choices the paper discusses beyond its headline results. The
// library lives under internal/ — see README.md for the map, DESIGN.md for
// the substitution argument (there is no CHERI hardware to run Go on, so
// the entire stack is a deterministic software model), and EXPERIMENTS.md
// for paper-versus-measured results.
//
// Entry points:
//
//   - cmd/sweep regenerates any subset of the evaluation's figures and
//     tables, or all of them;
//   - cmd/cornucopia runs one workload under one strategy;
//   - examples/ holds five runnable walkthroughs of the public API.
package repro
