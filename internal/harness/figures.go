// Per-suite experiment configurations. The figure and table drivers
// themselves live in internal/expt, which expands each one into a grid of
// (workload, condition, seed) jobs over Run; these configurations are the
// shared vocabulary between the harness and that orchestrator.
package harness

import "repro/internal/revoke"

// SpecConfig returns the configuration used for SPEC experiments.
func SpecConfig() Config { return DefaultConfig() }

// PgbenchConfig returns the pgbench configuration: a larger relative scale
// so that sweep durations relate to transaction latency as on Morello.
func PgbenchConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 8
	return cfg
}

// PgbenchScale is the pgbench footprint divisor that goes with a SPEC
// divisor: an eighth of it, at least 1 (PgbenchConfig's 8 goes with
// SpecConfig's 64).
func PgbenchScale(specScale uint64) uint64 { return max(specScale/8, 1) }

// QPSConfig returns the gRPC QPS configuration.
func QPSConfig() Config {
	cfg := DefaultConfig()
	cfg.AppCores = []int{3} // server threads use 2 and 3; Body spawns on 2
	return cfg
}

// QPSConditions returns the paper's conditions with the revoker unpinned
// (§5.3). CHERIvoke is excluded, as in the paper (footnote 25).
func QPSConditions() []Condition {
	var out []Condition
	for _, c := range StandardConditions() {
		if c.Strategy == revoke.CHERIvoke && c.Shimmed {
			continue
		}
		c.RevokerCores = nil
		out = append(out, c)
	}
	return out
}
