// Package fault implements deterministic, seed-driven fault injection for
// soundness campaigns (cmd/chaos). An Injector owns its own PRNG stream —
// a splitmix64-style hash over (seed, class, opportunity counter, cycle) —
// so decisions depend only on the injection Spec and the simulation's
// virtual time, never on host scheduling: the same Spec replays the same
// faults at any host parallelism.
//
// Six classes cover the failure surface the paper's protocol must either
// tolerate or have caught by the soundness oracle (internal/oracle):
// dropped TLB shootdowns, lost capability-dirty PTE bits, suppressed load
// barriers, stale tag reads hidden from the sweep, crashing sweep workers,
// and delayed epoch-counter publication.
package fault

import (
	"fmt"
	"strings"
)

// Class enumerates the injectable fault classes.
type Class int

const (
	// ShootdownDrop drops the BumpGenerations TLB-shootdown IPI to one
	// core, leaving its cached translations (and cached load generation)
	// stale.
	ShootdownDrop Class = iota
	// CapDirtyLoss loses the hardware capability-dirty PTE update on a
	// capability store; the store itself still lands.
	CapDirtyLoss
	// BarrierSuppress skips the §4.1 load-barrier generation check on a
	// capability load whose target is painted, handing the application an
	// unchecked (revocable) capability.
	BarrierSuppress
	// TagStaleRead hides a painted capability's granule from the revoker's
	// tag sweep, as if the tag read returned stale data.
	TagStaleRead
	// WorkerCrash stalls a background sweep worker and then kills it
	// mid-slice.
	WorkerCrash
	// EpochPublishDelay delays the closing epoch-counter advance after the
	// sweep completes.
	EpochPublishDelay
	// NumClasses bounds the enum.
	NumClasses
)

// String returns the class's kebab-case campaign name.
func (c Class) String() string {
	switch c {
	case ShootdownDrop:
		return "shootdown-drop"
	case CapDirtyLoss:
		return "cap-dirty-loss"
	case BarrierSuppress:
		return "barrier-suppress"
	case TagStaleRead:
		return "tag-stale-read"
	case WorkerCrash:
		return "worker-crash"
	case EpochPublishDelay:
		return "epoch-publish-delay"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// ParseClass resolves a campaign name back to its class.
func ParseClass(name string) (Class, error) {
	for c := Class(0); c < NumClasses; c++ {
		if strings.ToLower(strings.TrimSpace(name)) == c.String() {
			return c, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown class %q", name)
}

// Classes lists every class in declaration order.
func Classes() []Class {
	out := make([]Class, NumClasses)
	for c := Class(0); c < NumClasses; c++ {
		out[c] = c
	}
	return out
}

// ClassNames lists every class's campaign name in declaration order.
func ClassNames() []string {
	out := make([]string, NumClasses)
	for c := Class(0); c < NumClasses; c++ {
		out[c] = c.String()
	}
	return out
}

// Spec configures one run's injection plan. It is part of the experiment
// job key, so campaigns cache and resume like any other sweep.
type Spec struct {
	// Seed keys the injector's PRNG stream (independent of the workload
	// seed).
	Seed int64 `json:"seed"`
	// Classes arms the named fault classes; empty arms all of them.
	Classes []string `json:"classes,omitempty"`
	// Rate is the per-opportunity injection probability in (0, 1]; zero
	// means 1 (every opportunity fires).
	Rate float64 `json:"rate,omitempty"`
	// MaxPerClass caps injections per class (0 = unbounded).
	MaxPerClass uint64 `json:"max_per_class,omitempty"`
	// DelayCycles sizes the time-shaped faults: the crashing worker's
	// stall and the publication delay. Zero means 100_000 cycles.
	DelayCycles uint64 `json:"delay_cycles,omitempty"`
}

// Injection records one injected fault for the report.
type Injection struct {
	Class string `json:"class"`
	Cycle uint64 `json:"cycle"`
	Arg   uint64 `json:"arg"`
}

// maxReportEvents bounds the per-run event log; counts are always exact.
const maxReportEvents = 64

// Report summarizes one run's injections.
type Report struct {
	Seed       int64             `json:"seed"`
	Rate       float64           `json:"rate"`
	Injections uint64            `json:"injections"`
	ByClass    map[string]uint64 `json:"by_class,omitempty"`
	// Events holds the first maxReportEvents injections; Truncated marks
	// an overflow.
	Events    []Injection `json:"events,omitempty"`
	Truncated bool        `json:"truncated,omitempty"`
}

// Injector makes the per-opportunity injection decisions for one run.
type Injector struct {
	spec   Spec
	rate   float64
	delay  uint64
	armed  [NumClasses]bool
	opps   [NumClasses]uint64
	counts [NumClasses]uint64
	total  uint64
	events []Injection
	trunc  bool
}

// New validates spec and builds an injector.
func New(spec Spec) (*Injector, error) {
	in := &Injector{spec: spec, rate: spec.Rate, delay: spec.DelayCycles}
	if in.rate == 0 {
		in.rate = 1
	}
	if in.rate < 0 || in.rate > 1 {
		return nil, fmt.Errorf("fault: rate %v outside (0, 1]", spec.Rate)
	}
	if in.delay == 0 {
		in.delay = 100_000
	}
	if len(spec.Classes) == 0 {
		for c := range in.armed {
			in.armed[c] = true
		}
	} else {
		for _, name := range spec.Classes {
			c, err := ParseClass(name)
			if err != nil {
				return nil, err
			}
			in.armed[c] = true
		}
	}
	return in, nil
}

// Mix is a splitmix64-style avalanche over its inputs: the one hash that
// keys every deterministic decision stream in the simulator and its fleet
// (fault injection, network fault injection, retry jitter).
func Mix(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// Armed reports whether class c can fire at all.
func (in *Injector) Armed(c Class) bool { return in.armed[c] }

// Delay returns the configured fault duration in cycles.
func (in *Injector) Delay() uint64 { return in.delay }

// Should decides one injection opportunity for class c at the given
// simulation cycle (arg is a class-specific detail recorded on a hit). The
// decision hashes (seed, class, per-class opportunity counter, cycle), so
// it is a pure function of the run so far.
func (in *Injector) Should(c Class, cycle, arg uint64) bool {
	if !in.armed[c] {
		return false
	}
	if in.spec.MaxPerClass > 0 && in.counts[c] >= in.spec.MaxPerClass {
		return false
	}
	n := in.opps[c]
	in.opps[c]++
	if in.rate < 1 {
		h := Mix(uint64(in.spec.Seed), uint64(c), n, cycle)
		if float64(h>>11)/float64(1<<53) >= in.rate {
			return false
		}
	}
	in.counts[c]++
	in.total++
	if len(in.events) < maxReportEvents {
		in.events = append(in.events, Injection{Class: c.String(), Cycle: cycle, Arg: arg})
	} else {
		in.trunc = true
	}
	return true
}

// Count returns the number of injections of class c so far.
func (in *Injector) Count(c Class) uint64 { return in.counts[c] }

// Report snapshots the injector's activity.
func (in *Injector) Report() Report {
	rep := Report{
		Seed:       in.spec.Seed,
		Rate:       in.rate,
		Injections: in.total,
		Events:     append([]Injection(nil), in.events...),
		Truncated:  in.trunc,
	}
	for c := Class(0); c < NumClasses; c++ {
		if in.counts[c] > 0 {
			if rep.ByClass == nil {
				rep.ByClass = make(map[string]uint64)
			}
			rep.ByClass[c.String()] = in.counts[c]
		}
	}
	return rep
}
