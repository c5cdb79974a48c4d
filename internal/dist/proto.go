// Package dist fans internal/expt campaigns out across processes and
// machines: a Coordinator owns the job grid (embedded in cmd/sweep or
// cmd/chaos under -exec=net) and a fleet of stateless Workers
// (cmd/worker) pulls leases from it over a small versioned JSON-over-HTTP
// protocol. The coordinator reuses the local Pool for everything except
// execution — dedup by content hash, manifest resume, bounded
// retry/backoff, progress events — so the cornucopia-sweep/v1 and
// cornucopia-chaos/v1 documents a distributed campaign produces are
// byte-identical (after Document.Canonicalize strips host-execution
// metadata) to a single-process run of the same grid.
//
// Protocol (cornucopia-dist/v1), all POST, JSON request and reply:
//
//	/dist/v1/hello      worker announces its protocol version; the
//	                    coordinator refuses a mismatch up front (the
//	                    same class of check the manifest grid header
//	                    performs) and replies with the campaign's
//	                    tool/grid signature, the telemetry
//	                    configuration every job runs under, and the
//	                    heartbeat interval.
//	/dist/v1/lease      worker asks for a job; the reply is one of
//	                    "job" (a leased expt.Job plus its key),
//	                    "wait" (nothing runnable right now; poll again
//	                    after wait_ms), or "drain" (campaign complete;
//	                    exit). A repeated request number is answered
//	                    with the lease already granted for it.
//	/dist/v1/heartbeat  worker renews a lease; a not-OK reply means the
//	                    lease was reclaimed and the result will be
//	                    discarded.
//	/dist/v1/result     worker reports the job's JobResult (or its
//	                    error, pre-classified by expt.ErrClass on the
//	                    coordinator side) and the host milliseconds the
//	                    run took on the worker. A repeat of the report
//	                    that resolved a lease is acknowledged again.
//
// Workers that vanish mid-lease are detected by heartbeat timeout; the
// coordinator reclaims the lease and the pool's retry machinery re-issues
// the job (with backoff) to the next worker that asks — mirroring the
// revoke layer's abort-and-retry recovery, but at campaign granularity.
package dist

import (
	"repro/internal/expt"
	"repro/internal/telemetry"
)

// Proto is the wire-protocol version. Hello requests carrying any other
// value are rejected: job descriptions and results are structural JSON,
// so mixing coordinator and worker builds across a schema change would
// corrupt campaigns silently.
const Proto = "cornucopia-dist/v1"

// Paths of the protocol endpoints.
const (
	PathHello     = "/dist/v1/hello"
	PathLease     = "/dist/v1/lease"
	PathHeartbeat = "/dist/v1/heartbeat"
	PathResult    = "/dist/v1/result"
)

// Hello is the worker's opening announcement. Every build runs every job
// the same way, so a hello carries no capability lists; fields a worker
// sends that this build does not know (such as the sweep_kernels,
// sim_engines and mem_paths lists of older workers) are ignored.
type Hello struct {
	Proto string `json:"proto"`
	// Name labels the worker in progress output and telemetry ("host:pid"
	// by default); uniqueness is provided by the coordinator-assigned id.
	Name string `json:"name"`
}

// HelloReply accepts or rejects a worker.
type HelloReply struct {
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
	// WorkerID is the coordinator-assigned identity the worker presents
	// on every subsequent request.
	WorkerID string `json:"worker_id,omitempty"`
	// Tool and Grid identify the campaign, exactly as the manifest
	// header records them.
	Tool string `json:"tool,omitempty"`
	Grid string `json:"grid,omitempty"`
	// Telemetry, when non-nil, arms per-job recording so snapshots ride
	// back inside the JobResult. Its trace_events field is a
	// backwards-compatible cornucopia-dist/v1 extension: an old worker
	// ignores it and ships untraced snapshots, while a new worker against
	// an old coordinator sees the zero value (tracing off).
	Telemetry *telemetry.Options `json:"telemetry,omitempty"`
	// HeartbeatMS is how often the worker must renew each held lease.
	HeartbeatMS int64 `json:"heartbeat_ms,omitempty"`
}

// LeaseRequest asks for one job. Seq numbers the request; a worker
// retrying a request whose reply it never read sends the same number, and
// the coordinator answers a repeat with the lease it already granted for
// it, if that lease is still outstanding. A worker that omits Seq gets a
// fresh answer every time.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	Seq      uint64 `json:"seq,omitempty"`
}

// Lease reply statuses.
const (
	StatusJob   = "job"
	StatusWait  = "wait"
	StatusDrain = "drain"
)

// LeaseReply grants a job, asks the worker to poll again, or drains it.
type LeaseReply struct {
	Status string `json:"status"`
	// WaitMS is the suggested poll delay on StatusWait.
	WaitMS int64 `json:"wait_ms,omitempty"`
	// LeaseID names the lease on heartbeat/result; Key is the job's
	// content hash, which the worker re-derives from Job and verifies
	// before running — a mismatch means coordinator and worker disagree
	// on the job schema and the result would be unusable.
	LeaseID string    `json:"lease_id,omitempty"`
	Key     string    `json:"key,omitempty"`
	Job     *expt.Job `json:"job,omitempty"`
}

// HeartbeatRequest renews a lease.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
	LeaseID  string `json:"lease_id"`
}

// HeartbeatReply acknowledges a renewal; OK=false means the lease is no
// longer held (reclaimed or already resolved) and the run's result will
// be discarded.
type HeartbeatReply struct {
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}

// ResultRequest reports a finished lease: exactly one of Result (success)
// or Err (failure; the text preserves "panic: …" and "timed out"
// prefixes so expt.ErrClass classifies it like a local failure) is set.
// HostMS is the worker-side wall clock of the run itself, excluding queue
// and transport, recorded in the manifest as host_ms.
type ResultRequest struct {
	WorkerID string          `json:"worker_id"`
	LeaseID  string          `json:"lease_id"`
	Key      string          `json:"key"`
	HostMS   float64         `json:"host_ms"`
	Err      string          `json:"err,omitempty"`
	Result   *expt.JobResult `json:"result,omitempty"`
	// Cached marks a result replayed from the worker's local result cache
	// (its manifest) instead of being re-executed: a rejoining worker
	// serves its completed keys instantly. HostMS then reports the
	// original run's cost, exactly as a pool manifest hit does.
	Cached bool `json:"cached,omitempty"`
}

// ResultReply acknowledges a result; OK=false (expired lease, unknown
// worker) means the result was discarded — the worker just moves on.
type ResultReply struct {
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}
