// Package fleet is an open-loop connection-fleet surrogate: many
// mostly-idle connection threads, each cycling think-time → request →
// think-time against a small per-connection session pool. It models the
// regime the paper's service experiments (§5.3) scale toward — thousands
// of open-loop connections where almost every thread is asleep at any
// instant — and is deliberately scheduler-bound: per-request compute is
// tiny, so host time goes to the simulator's sleep/wake machinery, not to
// the swept heap. hostbench's SimCampaignFast times a full revocation
// campaign over this fleet end to end.
//
// Determinism: every connection derives its think times from its own
// splitmix-style counter seeded by (Seed, conn index), so the virtual-time
// schedule is a pure function of the workload parameters regardless of
// host interleaving.
package fleet

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/workload"
)

// Fleet is the workload.
type Fleet struct {
	// Conns is the number of open-loop connection threads.
	Conns int
	// RequestsPerConn is each connection's fixed request count.
	RequestsPerConn int
	// MeanThink is the mean think time between a connection's requests,
	// in cycles. Actual think times vary per connection and per request
	// across [MeanThink/2, 3·MeanThink/2).
	MeanThink uint64
	// Seed perturbs the per-connection think-time streams.
	Seed uint64

	// SessionSlots and SessionBytes size each connection's session pool;
	// zero means the scheduler-bound defaults (sessionSlots ×
	// sessionBytes). hostbench's FleetSetup pair raises them to make the
	// fleet allocation-bound instead: large sessions shift host time from
	// the simulator's sleep/wake machinery into the memory-model paths
	// (frame and shadow-chunk population, capability-array clears, vpn
	// appends).
	SessionSlots int
	SessionBytes uint64

	// Messages counts completed requests across the fleet.
	Messages uint64
}

// New returns a fleet sized for the hostbench campaign: conns open-loop
// connections issuing reqs requests each with ~100k-cycle think times.
func New(conns, reqs int) *Fleet {
	return &Fleet{Conns: conns, RequestsPerConn: reqs, MeanThink: 100_000, Seed: 1}
}

// Name implements workload.Workload.
func (w *Fleet) Name() string { return "conn-fleet" }

// sessionSlots × sessionBytes is each connection's live session state —
// kept small on purpose: the fleet exists to exercise the scheduler, and
// the quarantine the sessions' churn feeds is what keeps revocation
// epochs coming.
const (
	sessionSlots = 6
	sessionBytes = 256
)

// Body implements workload.Workload: spawn the fleet, join it.
func (w *Fleet) Body(rig *workload.Rig, th *kernel.Thread) {
	w.Messages = 0
	done := make([]uint64, w.Conns)
	for i := 0; i < w.Conns; i++ {
		i := i
		rig.SpawnApp(fmt.Sprintf("conn%d", i), rig.AppCores, func(ct *kernel.Thread) {
			done[i] = w.serve(rig, ct, i)
		})
	}
	rig.Join(th)
	for _, n := range done {
		w.Messages += n
	}
}

// serve runs one connection: an open-loop think/request cycle.
func (w *Fleet) serve(rig *workload.Rig, th *kernel.Thread, idx int) uint64 {
	// Per-connection deterministic think-time stream (splitmix64-style).
	x := w.Seed*0x9E3779B97F4A7C15 + uint64(idx+1)*0xBF58476D1CE4E5B9
	next := func() uint64 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	slots, bytes := w.SessionSlots, w.SessionBytes
	if slots <= 0 {
		slots = sessionSlots
	}
	if bytes == 0 {
		bytes = sessionBytes
	}
	sizes := workload.NewSizeDist([]uint64{bytes}, []int{1})
	sess, err := workload.NewPool(rig, th, slots, sizes, 0.25)
	if err != nil {
		panic(fmt.Sprintf("fleet: %v", err))
	}
	// Stagger connection starts across one mean think time.
	th.Idle(1 + uint64(idx)*w.MeanThink/uint64(w.Conns))
	msgs := uint64(0)
	for r := 0; r < w.RequestsPerConn; r++ {
		think := w.MeanThink/2 + next()%w.MeanThink
		th.Idle(think)
		arrival := th.Sim.Now()
		th.Syscall(300) // recv + send, coalesced
		th.Work(600)    // parse + handle
		if r%8 == 0 {
			// Touch session state on a quarter of requests: enough load
			// traffic to exercise the condition's barriers without the
			// memory system dominating the scheduler this workload times.
			if err := sess.Access(int(next()%uint64(slots)), 128, 1); err != nil {
				panic(fmt.Sprintf("fleet: access: %v", err))
			}
		}
		if r%16 == 15 {
			// Session churn: the frees feed the quarantine, which is what
			// drives revocation epochs during the campaign.
			if err := sess.Replace(int(next() % uint64(slots))); err != nil {
				panic(fmt.Sprintf("fleet: replace: %v", err))
			}
		}
		rig.Lat.AddU(th.Sim.Now() - arrival)
		msgs++
	}
	if err := sess.Drain(); err != nil {
		panic(fmt.Sprintf("fleet: drain: %v", err))
	}
	return msgs
}
