// Package heapscale is the memory-scale stress axis: a GB-scale heap of a
// million-plus live allocations (at scale 1) with modest churn. Where the
// SPEC surrogates and server workloads stress revocation *rate*, heapscale
// stresses revocation *extent* — the sheer number of live allocations,
// mapped pages and tagged granules a sweep must cover — which is exactly
// the regime the sparse hierarchical tag and shadow representations (and
// the O(1)-append vpn path) exist for. Host-side, a heapscale run is
// dominated by allocation-path and sweep-iteration costs.
package heapscale

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/workload"
)

// Workload builds a pool of LiveAllocs/Scale small objects, churns a
// fraction of it, and sweeps the survivors with a round of accesses.
type Workload struct {
	// LiveAllocs is the full-scale live allocation count, divided by the
	// rig's Scale. The shipped grid uses 1<<20 (a million live
	// allocations, ~1 GiB of heap at scale 1).
	LiveAllocs int
	// ChurnOps is the full-scale replace count, also divided by Scale.
	// Kept small relative to LiveAllocs: heapscale measures scale, not
	// churn rate.
	ChurnOps int
}

// New returns a heapscale workload with full-scale parameters.
func New(liveAllocs, churnOps int) Workload {
	return Workload{LiveAllocs: liveAllocs, ChurnOps: churnOps}
}

// Name implements workload.Workload.
func (Workload) Name() string { return "heapscale" }

// sizes is the allocation mixture: small-object heavy (mean 1 KiB), so a
// million allocations is about a gigabyte of heap.
func sizes() workload.SizeDist {
	return workload.NewSizeDist([]uint64{256, 1024, 4096}, []int{4, 3, 1})
}

// ptrFrac keeps object pages sparsely tagged: most granules of the heap
// hold plain data, so live tags are far rarer than live bytes — the
// distribution the hierarchical summaries exploit.
const ptrFrac = 0.05

// Body implements workload.Workload.
func (h Workload) Body(rig *workload.Rig, th *kernel.Thread) {
	slots := h.LiveAllocs / int(rig.Scale)
	if slots < 64 {
		slots = 64
	}
	ops := h.ChurnOps / int(rig.Scale)
	pool, err := workload.NewPool(rig, th, slots, sizes(), ptrFrac)
	if err != nil {
		panic(fmt.Sprintf("heapscale: %v", err))
	}
	for op := 0; op < ops; op++ {
		if err := pool.Replace(pool.PickSlot(0.05, 0.9)); err != nil {
			panic(fmt.Sprintf("heapscale: replace: %v", err))
		}
		if op%4 == 3 {
			if err := pool.Access(pool.PickSlot(0, 0), 128, 1); err != nil {
				panic(fmt.Sprintf("heapscale: access: %v", err))
			}
		}
	}
	// A final pass over the whole pool: every live object is touched once,
	// so the run's cost reflects the full extent of the heap, not only the
	// churned fraction.
	for i := 0; i < slots; i++ {
		if err := pool.Access(i, 64, 0); err != nil {
			panic(fmt.Sprintf("heapscale: final access: %v", err))
		}
	}
	if err := pool.Drain(); err != nil {
		panic(fmt.Sprintf("heapscale: drain: %v", err))
	}
}

// MaxFrames returns a physical-memory bound (in 4 KiB frames) sufficient
// for the workload at the given scale: live bytes plus root array,
// allocator slack and a safety margin. Callers building heapscale jobs use
// this to size Machine.MaxFrames, since the default 1 GiB board is too
// small for a full-scale heapscale run.
func (h Workload) MaxFrames(scale uint64) int {
	live := uint64(h.LiveAllocs) / scale * sizes().Mean()
	frames := int(live/4096) * 2 // 2×: allocator slack, root, quarantine
	if frames < 1<<18 {
		frames = 1 << 18
	}
	return frames
}
