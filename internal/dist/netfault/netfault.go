// Package netfault implements deterministic, seed-driven network fault
// injection for distributed campaigns (internal/dist). It is the transport
// twin of internal/fault: where that package attacks the simulated
// revocation protocol, this one attacks the cornucopia-dist/v1 wire — the
// coordinator/worker HTTP paths that fan a campaign across machines — so
// the fleet's degraded-mode machinery (lease reclaim, retry/backoff,
// circuit breakers, result caching, local fallback) is proven against the
// failure classes production networks actually exhibit.
//
// Decisions use internal/fault's splitmix hash (fault.Mix): each injection
// opportunity hashes (seed, class, per-class opportunity counter), so the
// decision stream per class is a pure function of the Spec — the same
// spec replays the same hit/miss sequence on any host. (Unlike the
// simulator's injector there is no virtual clock to key on; wall-clock
// interleaving of concurrent requests can vary, but which opportunities
// fire cannot.)
//
// Seven classes cover the distributed failure surface:
//
//	drop       request vanishes before reaching the peer (link loss)
//	delay      request held for Spec.Delay before sending (slow link)
//	duplicate  request delivered twice; the duplicate's reply discarded
//	           (retransmit storms — exercises protocol idempotency)
//	reorder    request held until a later request overtakes it
//	reset      request delivered, reply torn away with a connection-reset
//	           error (mid-flight RST — side effects land, caller must
//	           survive not knowing)
//	throttle   every request slowed by Spec.Delay (a slow worker)
//	partition  coordinator refuses a deterministic subset of workers'
//	           requests (split brain; heals when MaxPerClass is spent)
//
// Transport injects the first six on a worker's outgoing requests;
// Handler injects drop, delay and partition on the coordinator's inbound
// side, where worker identity is known.
package netfault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
)

// Class enumerates the injectable network fault classes.
type Class int

const (
	// Drop loses the request before it reaches the peer.
	Drop Class = iota
	// Delay holds the request for Spec.Delay before sending.
	Delay
	// Duplicate sends the request twice, keeping the second reply.
	Duplicate
	// Reorder holds the request until a later one overtakes it.
	Reorder
	// Reset delivers the request but tears the reply away with a
	// connection-reset error.
	Reset
	// Throttle slows every selected request by Spec.Delay (slow worker).
	Throttle
	// Partition makes the coordinator refuse a subset of workers.
	Partition
	// NumClasses bounds the enum.
	NumClasses
)

// String returns the class's kebab-case campaign name.
func (c Class) String() string {
	switch c {
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Duplicate:
		return "duplicate"
	case Reorder:
		return "reorder"
	case Reset:
		return "reset"
	case Throttle:
		return "throttle"
	case Partition:
		return "partition"
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
	return 0, fmt.Errorf("netfault: unknown class %q", name)
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

// Spec configures one injector. Like fault.Spec it is plain data, so a
// campaign scenario is fully described by (worker spec, coordinator spec).
type Spec struct {
	// Seed keys the injector's decision stream.
	Seed int64 `json:"seed"`
	// Classes arms the named classes; empty arms all of them. "all" is
	// accepted as a single element.
	Classes []string `json:"classes,omitempty"`
	// Rate is the per-opportunity injection probability in (0, 1]; zero
	// means 1 (every opportunity fires).
	Rate float64 `json:"rate,omitempty"`
	// MaxPerClass caps injections per class (0 = unbounded). A bounded
	// partition heals itself: once spent, the subset rejoins the fleet.
	MaxPerClass uint64 `json:"max_per_class,omitempty"`
	// Delay shapes the time-based faults (delay, reorder hold, throttle).
	// Zero means 5ms.
	Delay time.Duration `json:"delay,omitempty"`
	// PartitionFrac is the fraction of workers in the partitioned subset,
	// selected deterministically by hashing each worker id against Seed.
	// Zero means 0.5.
	PartitionFrac float64 `json:"partition_frac,omitempty"`
}

// Report summarizes one injector's activity, shaped after fault.Report.
type Report struct {
	Seed       int64             `json:"seed"`
	Rate       float64           `json:"rate"`
	Injections uint64            `json:"injections"`
	ByClass    map[string]uint64 `json:"by_class,omitempty"`
}

// Injector makes the per-opportunity injection decisions for one side of
// the protocol. Safe for concurrent use: transports and HTTP handlers
// call it from many goroutines.
type Injector struct {
	mu     sync.Mutex
	spec   Spec
	rate   float64
	delay  time.Duration
	frac   float64
	armed  [NumClasses]bool
	opps   [NumClasses]uint64
	counts [NumClasses]uint64
	total  uint64
	// parked is the release channel of a reorder-held request, closed
	// when a later request passes it.
	parked chan struct{}
}

// New validates spec and builds an injector. A nil *Injector is valid
// everywhere and injects nothing, so callers thread it unconditionally.
func New(spec Spec) (*Injector, error) {
	in := &Injector{spec: spec, rate: spec.Rate, delay: spec.Delay, frac: spec.PartitionFrac}
	if in.rate == 0 {
		in.rate = 1
	}
	if in.rate < 0 || in.rate > 1 {
		return nil, fmt.Errorf("netfault: rate %v outside (0, 1]", spec.Rate)
	}
	if in.delay == 0 {
		in.delay = 5 * time.Millisecond
	}
	if in.frac == 0 {
		in.frac = 0.5
	}
	if in.frac < 0 || in.frac > 1 {
		return nil, fmt.Errorf("netfault: partition fraction %v outside [0, 1]", spec.PartitionFrac)
	}
	if len(spec.Classes) == 0 || (len(spec.Classes) == 1 && strings.EqualFold(spec.Classes[0], "all")) {
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

// uniform maps a hash to [0, 1).
func uniform(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

// Armed reports whether class c can fire at all. Nil-safe.
func (in *Injector) Armed(c Class) bool {
	if in == nil {
		return false
	}
	return in.armed[c]
}

// Delay returns the configured fault duration.
func (in *Injector) Delay() time.Duration {
	if in == nil {
		return 0
	}
	return in.delay
}

// Should decides one injection opportunity for class c. The decision
// hashes (seed, class, per-class opportunity counter) — per-class streams
// are pure functions of the spec. Nil-safe (never fires).
func (in *Injector) Should(c Class) bool {
	if in == nil || !in.armed[c] {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.spec.MaxPerClass > 0 && in.counts[c] >= in.spec.MaxPerClass {
		return false
	}
	n := in.opps[c]
	in.opps[c]++
	if in.rate < 1 && uniform(fault.Mix(uint64(in.spec.Seed), uint64(c), n)) >= in.rate {
		return false
	}
	in.counts[c]++
	in.total++
	return true
}

// InPartition reports whether the worker with the given id belongs to the
// partitioned subset: a pure function of (seed, id), so the same fleet
// partitions the same way on every run. Nil-safe.
func (in *Injector) InPartition(workerID string) bool {
	if in == nil || workerID == "" || !in.armed[Partition] {
		return false
	}
	h := fnv.New64a()
	h.Write([]byte(workerID))
	return uniform(fault.Mix(uint64(in.spec.Seed), uint64(Partition), h.Sum64())) < in.frac
}

// Total returns the number of injections so far. Nil-safe.
func (in *Injector) Total() uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.total
}

// Report snapshots the injector's activity. Nil-safe (zero report).
func (in *Injector) Report() Report {
	if in == nil {
		return Report{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	rep := Report{Seed: in.spec.Seed, Rate: in.rate, Injections: in.total}
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

// park registers a reorder hold and returns its release channel, releasing
// any previously-parked request first (at most one request is held).
func (in *Injector) park() chan struct{} {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.parked != nil {
		close(in.parked)
	}
	in.parked = make(chan struct{})
	return in.parked
}

// overtake releases a parked request, if any — called when another request
// completes, i.e. has overtaken the held one.
func (in *Injector) overtake() {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.parked != nil {
		close(in.parked)
		in.parked = nil
	}
}

// Transport wraps an http.RoundTripper with worker-side injection of the
// drop, delay, duplicate, reorder, reset and throttle classes. A nil
// injector forwards everything untouched.
type Transport struct {
	in   *Injector
	base http.RoundTripper
}

// NewTransport builds a faulty transport over base (nil base = the default
// transport).
func NewTransport(in *Injector, base http.RoundTripper) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{in: in, base: base}
}

// RoundTrip applies at most one fault of each armed class to the request,
// in a fixed class order, then forwards it.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	in := t.in
	if in == nil {
		return t.base.RoundTrip(req)
	}
	if in.Should(Drop) {
		// The request never reaches the peer; no side effects land.
		return nil, fmt.Errorf("netfault: injected drop: connection lost before %s was sent", req.URL.Path)
	}
	if in.Should(Delay) {
		time.Sleep(in.Delay())
	}
	if in.Should(Throttle) {
		time.Sleep(in.Delay())
	}
	if in.Should(Reorder) {
		// Hold until a later request completes (overtaking this one) or
		// the hold window expires — both bound the inversion.
		release := in.park()
		select {
		case <-release:
		case <-time.After(4 * in.Delay()):
		}
	}
	if in.Should(Duplicate) {
		// First delivery's reply is discarded; the peer sees the request
		// twice. GetBody is always set for the bytes.Reader bodies the
		// dist client posts.
		if dup := cloneRequest(req); dup != nil {
			if resp, err := t.base.RoundTrip(dup); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}
	if in.Should(Reset) {
		// Deliver the request, then tear the reply away: side effects
		// landed but the caller cannot know — the hard half of at-most-once.
		if resp, err := t.base.RoundTrip(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		in.overtake()
		return nil, fmt.Errorf("netfault: injected reset: read %s: connection reset by peer", req.URL.Path)
	}
	resp, err := t.base.RoundTrip(req)
	in.overtake()
	return resp, err
}

// cloneRequest duplicates req with a fresh body; nil when the body cannot
// be replayed.
func cloneRequest(req *http.Request) *http.Request {
	if req.GetBody == nil {
		return nil
	}
	body, err := req.GetBody()
	if err != nil {
		return nil
	}
	dup := req.Clone(req.Context())
	dup.Body = body
	return dup
}

// workerIDBody is the loose shape of every post-hello protocol request —
// just enough to attribute an inbound request to a worker.
type workerIDBody struct {
	WorkerID string `json:"worker_id"`
}

// maxPeek bounds how much request body the handler buffers to find the
// worker id; protocol requests are small.
const maxPeek = 1 << 20

// Handler wraps h with coordinator-side injection: drop and delay apply
// to any inbound request, partition to requests from workers in the
// partitioned subset. Rejections answer 503, which the worker-side retry
// machinery treats as a transient transport failure. A nil injector (or
// one with none of these classes armed) returns h unchanged.
func (in *Injector) Handler(h http.Handler) http.Handler {
	if in == nil || (!in.Armed(Drop) && !in.Armed(Delay) && !in.Armed(Partition)) {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if in.Armed(Partition) {
			// Re-readable body: peek the worker id, then restore.
			body, err := io.ReadAll(io.LimitReader(r.Body, maxPeek))
			r.Body.Close()
			if err != nil {
				http.Error(w, "netfault: reading request", http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			var wid workerIDBody
			_ = json.Unmarshal(body, &wid)
			if in.InPartition(wid.WorkerID) && in.Should(Partition) {
				http.Error(w, fmt.Sprintf(
					"netfault: injected partition: worker %s unreachable", wid.WorkerID),
					http.StatusServiceUnavailable)
				return
			}
		}
		if in.Should(Drop) {
			http.Error(w, "netfault: injected drop: request lost inbound", http.StatusServiceUnavailable)
			return
		}
		if in.Should(Delay) {
			time.Sleep(in.Delay())
		}
		h.ServeHTTP(w, r)
	})
}
