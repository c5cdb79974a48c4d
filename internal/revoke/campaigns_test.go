// Pinned campaigns: seeded revocation campaigns whose complete observable
// outcome — virtual clocks, DRAM traffic, per-epoch sweep counters,
// recovery actions, fault and oracle reports, and the full structured
// trace as CSV — is hashed and compared against a recorded digest. The
// digests were recorded while the per-granule sweep kernel and the classic
// sim engine were still selectable, and each campaign hashed the same
// under the word and granule kernels and the fast and classic engines, so
// they pin the production paths to the behaviour of the implementations
// they replaced. The references themselves live on as package-local
// differentials (internal/kernel's granule sweep, internal/sim's classic
// scheduler). The package is revoke_test (not revoke) because the
// campaigns run through the harness, which imports revoke.
package revoke_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/revoke"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/workload/chaos"
	"repro/internal/workload/pgbench"
)

// campaignDigests holds the recorded sha256 of campaignDigest for every
// campaign, keyed by subtest name. A mismatch means the simulation
// changed: a change that means to alter simulated behaviour re-records
// these values (the failure message prints the new digest) and says so.
var campaignDigests = map[string]string{
	"CHERIvoke":      "542710454cfb500355abf66a2369f9d2a68d0d0235e7fb9b95440c96ff052d2d",
	"Cornucopia":     "2834de634ba090a80706a4530bff506dd048955a7c0ad90b9f6e391168ee63d6",
	"Reloaded":       "b5cf9f8d413c1427de501efb4ffcd347babd029c4295b95a7eb57135b6e51c83",
	"Reloaded-w2":    "e4e79fdc7af86e8452dccdb00a7d0ec414a2f75a779a13f97fafc65dd2a683fe",
	"Reloaded-AT":    "88b1151e5726a8e7c32747c0a0d8fea28d51e6685a0d7fa96799314e32095c50",
	"tag-stale-read": "a56fe622c3fa199dd8c0fd7a2fecf1bf6ab728de609ec597eda4266f8d009888",
	"all-classes":    "0dda5bbcdba389eb2cf76b9c2afe3e126d1364e4a517a905944f04e8d7c89cb9",
}

// runTraced executes one campaign with tracing armed.
func runTraced(t *testing.T, w workload.Workload, cond harness.Condition, cfg harness.Config) *harness.Result {
	t.Helper()
	cfg.Trace = trace.New(1 << 18)
	r, err := harness.Run(w, cond, cfg)
	if err != nil {
		t.Fatalf("%s under %s: %v", w.Name(), cond.Name, err)
	}
	return r
}

// campaignDigest hashes everything a run measures. DRAMByAgent prints in
// agent order (app, alloc, revoker, kernel), the order the pinned digests
// were recorded in; maps print with sorted keys, and every struct hashed
// here is pointer-free, so the encoding is deterministic across processes.
func campaignDigest(t *testing.T, r *harness.Result) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "clocks %d %d %d\n", r.WallCycles, r.CPUCycles, r.AppCPUCycles)
	a := r.DRAMByAgent
	fmt.Fprintf(h, "dram %d map[app:%d alloc:%d revoker:%d kernel:%d] %v\n",
		r.DRAMTotal, a["app"], a["alloc"], a["revoker"], a["kernel"], r.DRAMByCore)
	fmt.Fprintf(h, "rss %d\nproc %+v\nheap %+v\nquar %+v\n", r.PeakRSSPages, r.Proc, r.Heap, r.Quar)
	for i, e := range r.Epochs {
		fmt.Fprintf(h, "epoch %d %+v\n", i, e)
	}
	fmt.Fprintf(h, "recovery %+v\n", r.Recovery)
	if r.Fault != nil {
		fmt.Fprintf(h, "fault %+v\n", *r.Fault)
	}
	if r.Oracle != nil {
		fmt.Fprintf(h, "oracle %+v\n", *r.Oracle)
	}
	if err := trace.WriteCSV(h, r.Trace.Events()); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// measuredDigests memoizes campaign digests by subtest name. The kernel
// and engine tests below pin the same campaigns, so each is simulated once
// per test binary however many of the tests run.
var measuredDigests = map[string]string{}

// requirePinned runs the named campaign (or reuses its digest) and
// compares the digest against the recorded one.
func requirePinned(t *testing.T, name string, run func(*testing.T) *harness.Result) {
	t.Helper()
	got, ok := measuredDigests[name]
	if !ok {
		got = campaignDigest(t, run(t))
		measuredDigests[name] = got
	}
	if want := campaignDigests[name]; got != want {
		t.Errorf("%s: campaign digest %s, recorded %s — the simulated outcome changed", name, got, want)
	}
}

// pinPgbenchCampaigns runs every sweeping strategy — including parallel
// workers and the §7.6 always-trap disposition — over a seeded pgbench
// campaign and pins each to its recorded digest.
func pinPgbenchCampaigns(t *testing.T) {
	conds := harness.SweepConditions()
	conds = append(conds,
		harness.Condition{Name: "Reloaded-w2", Shimmed: true, Strategy: revoke.Reloaded,
			RevokerCores: []int{2}, Workers: 2},
		harness.Condition{Name: "Reloaded-AT", Shimmed: true, Strategy: revoke.Reloaded,
			RevokerCores: []int{2}, AlwaysTrap: true},
	)
	for _, cond := range conds {
		cond := cond
		t.Run(cond.Name, func(t *testing.T) {
			requirePinned(t, cond.Name, func(t *testing.T) *harness.Result {
				cfg := harness.DefaultConfig()
				cfg.Scale = 256
				r := runTraced(t, pgbench.New(400), cond, cfg)
				var visited, revoked uint64
				for _, e := range r.Epochs {
					visited += e.CapsVisited
					revoked += e.CapsRevoked
				}
				if visited == 0 || revoked == 0 {
					t.Fatalf("visited %d / revoked %d capabilities over %d epochs — campaign too idle to pin the sweep",
						visited, revoked, len(r.Epochs))
				}
				return r
			})
		})
	}
}

// pinFaultCampaigns runs two chaos campaigns at a tight SkewQuantum and
// pins each to its recorded digest. These are the scheduling- and
// batching-sensitive campaigns: a tag-stale-read campaign arms
// Phys.SweepFilter, whose decisions hash the simulated cycle each granule
// is reached at, and the all-classes campaign crashes workers mid-slice
// and retries epochs, so any change in the sweep's tick boundaries or the
// engine's dispatch order changes which injections fire.
func pinFaultCampaigns(t *testing.T) {
	faulty := harness.Condition{Name: "Reloaded", Shimmed: true, Strategy: revoke.Reloaded, Workers: 3}
	for _, tc := range []struct {
		name string
		spec *fault.Spec
	}{
		{"tag-stale-read", &fault.Spec{Seed: 7, Classes: []string{"tag-stale-read"}, MaxPerClass: 8}},
		{"all-classes", &fault.Spec{Seed: 11, Rate: 0.5, DelayCycles: 50_000}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			requirePinned(t, tc.name, func(t *testing.T) *harness.Result {
				cfg := harness.DefaultConfig()
				cfg.Machine.Sim.SkewQuantum = 2_000
				cfg.QuarantineMin = 8 << 10
				cfg.Oracle = true
				cfg.Fault = tc.spec
				r := runTraced(t, chaos.New(3000), faulty, cfg)
				if r.Fault.Injections == 0 {
					t.Fatalf("%s: no injections fired — campaign exercises neither the filter nor recovery", tc.name)
				}
				return r
			})
		})
	}
}

// TestWordKernelMatchesGranule pins the word-wise SweepPage to the
// per-granule kernel it replaced: every pgbench campaign must reproduce
// the digest the granule kernel produced on it.
func TestWordKernelMatchesGranule(t *testing.T) { pinPgbenchCampaigns(t) }

// TestWordKernelMatchesGranuleUnderFaults does the same for the fault
// campaigns, where the SweepFilter fallback and mid-slice recovery make
// any batching difference between the kernels visible.
func TestWordKernelMatchesGranuleUnderFaults(t *testing.T) { pinFaultCampaigns(t) }

// TestFastEngineMatchesClassic pins the fast sim scheduler to the classic
// channel-per-slice one: every pgbench campaign must reproduce the digest
// the classic engine produced on it.
func TestFastEngineMatchesClassic(t *testing.T) { pinPgbenchCampaigns(t) }

// TestFastEngineMatchesClassicUnderFaults does the same for the fault
// campaigns, whose tight SkewQuantum maximizes slice expiries — the point
// where the fast engine's inline continuation replaces the classic
// channel round-trip.
func TestFastEngineMatchesClassicUnderFaults(t *testing.T) { pinFaultCampaigns(t) }
