// Package journal is the campaign event journal: a versioned,
// append-only JSONL stream (cornucopia-journal/v1) of everything that
// happened to a campaign at the orchestration level — job submission,
// attempts, retries and results from the local pool, plus leases, worker
// membership, breaker trips, fault injections and recovery actions from
// the distributed coordinator.
//
// Two timestamps ride on every event: a strictly-increasing sequence
// number and a monotonic host-nanosecond offset from journal open, so a
// postmortem can reconstruct both causal order and real elapsed time.
// Simulated time appears where it exists (job results carry the job's
// virtual wall cycles).
//
// The journal is host-side observability, so most of it is inherently
// nondeterministic (interleaving, host costs, worker identity). The
// deterministic core is recovered by Canonical(): the projection of
// completed work onto simulated content, which is byte-identical for a
// given grid and seed regardless of worker count, scheduling, retries or
// cache replays — pinned by tests the same way the result documents are.
//
// A nil *Writer is a valid disabled journal, so emit sites need no
// guards; Writer is internally locked and safe for concurrent use (pool
// workers and coordinator handlers share one).
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Schema versions the journal header line.
const Schema = "cornucopia-journal/v1"

// Meta is the journal's first line: which tool wrote it and the
// canonical description of the grid it records. A resumed campaign
// appends to an existing journal only when the header matches.
type Meta struct {
	Schema string `json:"schema"`
	Tool   string `json:"tool"`
	Grid   string `json:"grid"`
}

// Event kinds. The pool emits the job-* lifecycle; the coordinator adds
// fleet membership and degraded-mode events.
const (
	// KindJobSubmit records a job entering the campaign (pool submit).
	KindJobSubmit = "job-submit"
	// KindJobStart records one execution attempt beginning.
	KindJobStart = "job-start"
	// KindJobRetry records a failed attempt being retried (Status
	// retry); Err carries the classified error, Attempt the attempt that
	// failed.
	KindJobRetry = "job-retry"
	// KindJobResult records a job finishing (Status ran/cached/failed).
	// VCycles is the job's simulated wall-cycle count on success; Done and
	// Total count completed and submitted jobs at that moment.
	KindJobResult = "job-result"
	// KindJobLease records the coordinator granting a lease; Detail is
	// the lease id, Worker the grantee.
	KindJobLease = "job-lease"
	// KindJobReport records a worker's result report landing at the
	// coordinator (Status ran/cached/failed/discarded).
	KindJobReport = "job-report"
	// KindLeaseReclaim records the coordinator reclaiming a lease; Err
	// says why (heartbeat silence or lease age).
	KindLeaseReclaim = "lease-reclaim"
	// KindWorkerJoin records a worker passing hello validation.
	KindWorkerJoin = "worker-join"
	// KindWorkerEvict records a silent worker being folded into the
	// departed aggregate.
	KindWorkerEvict = "worker-evict"
	// KindBreakerTrip records a per-worker circuit breaker opening.
	KindBreakerTrip = "breaker-trip"
	// KindLocalFallback records the coordinator running queued jobs
	// locally because the fleet went silent; Count is the batch size.
	KindLocalFallback = "local-fallback"
	// KindNetFault summarizes injected network faults per class at
	// drain; Detail is the class, Count the injection count.
	KindNetFault = "netfault"
	// KindManifestError records a job whose run succeeded but whose
	// manifest write failed (it re-runs on resume); Err carries the
	// write error.
	KindManifestError = "manifest-error"
)

// Event is one journal line, and the one campaign-event type: the pool
// hands the same value to the journal, to progress lines and to the live
// server. Fields are omitted when they do not apply to the kind; Seq and
// HostNS are stamped by the Writer (or by the live server, for its own
// view).
type Event struct {
	Seq       int     `json:"seq,omitempty"`
	HostNS    int64   `json:"host_ns,omitempty"`
	Kind      string  `json:"kind,omitempty"`
	Key       string  `json:"key,omitempty"`
	Workload  string  `json:"workload,omitempty"`
	Condition string  `json:"condition,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	Status    string  `json:"status,omitempty"`
	Worker    string  `json:"worker,omitempty"`
	Attempt   int     `json:"attempt,omitempty"`
	Err       string  `json:"err,omitempty"`
	HostMS    float64 `json:"host_ms,omitempty"`
	VCycles   uint64  `json:"vcycles,omitempty"`
	Detail    string  `json:"detail,omitempty"`
	Count     uint64  `json:"count,omitempty"`
	Done      int     `json:"done,omitempty"`
	Total     int     `json:"total,omitempty"`
}

// journalLine is the on-disk union of header and event lines, mirroring
// the manifest's layout.
type journalLine struct {
	Meta *Meta `json:"meta,omitempty"`
	Event
}

// maxLine bounds one journal line when reading.
const maxLine = 16 << 20

// Writer appends events to a journal file. All methods are safe on a
// nil receiver (disabled journal) and safe for concurrent use.
type Writer struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	start time.Time
	base  int64 // host_ns offset adopted from a resumed journal
	seq   int
	err   error // sticky first write error
}

// Create opens the journal at path for the given tool/grid, creating it
// if absent. A torn final line (writer crashed mid-append) is truncated
// first, mirroring the manifest. A fresh journal adopts the header; an
// existing one must carry a matching header — its sequence and
// host-time counters are adopted so appended events stay monotonic.
func Create(path, tool, grid string) (*Writer, error) {
	meta := Meta{Schema: Schema, Tool: tool, Grid: grid}
	if err := RepairTornTail(path); err != nil {
		return nil, fmt.Errorf("journal: repairing %s: %w", path, err)
	}
	var got *Meta
	lastSeq, lastNS := 0, int64(0)
	if f, err := os.Open(path); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), maxLine)
		for sc.Scan() {
			var line journalLine
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				continue
			}
			if line.Meta != nil && got == nil {
				got = line.Meta
				continue
			}
			if line.Seq > lastSeq {
				lastSeq = line.Seq
			}
			if line.HostNS > lastNS {
				lastNS = line.HostNS
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("journal: reading %s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, path: path, start: time.Now(), base: lastNS, seq: lastSeq}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	switch {
	case st.Size() == 0:
		b, err := json.Marshal(journalLine{Meta: &meta})
		if err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Write(append(b, '\n')); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: writing header %s: %w", path, err)
		}
	case got == nil:
		f.Close()
		return nil, fmt.Errorf(
			"journal: %s has no metadata header and cannot be validated against this request; use a fresh -journal path",
			path)
	case got.Schema != meta.Schema || got.Tool != meta.Tool || got.Grid != meta.Grid:
		f.Close()
		return nil, fmt.Errorf(
			"journal: %s was written for a different run (tool %q grid %q, want tool %q grid %q); rerun with matching flags or use a fresh -journal path",
			path, got.Tool, got.Grid, meta.Tool, meta.Grid)
	}
	return w, nil
}

// Enabled reports whether events are being recorded.
func (w *Writer) Enabled() bool { return w != nil }

// Emit stamps the event with the next sequence number and the monotonic
// host-nanosecond offset and appends it. Write errors are sticky: the
// first is kept (see Err) and later emissions become no-ops, so a full
// disk cannot wedge a campaign.
func (w *Writer) Emit(ev Event) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	w.seq++
	ev.Seq = w.seq
	ns := w.base + time.Since(w.start).Nanoseconds()
	if ns <= w.base {
		ns = w.base + 1
	}
	ev.HostNS = ns
	b, err := json.Marshal(journalLine{Event: ev})
	if err != nil {
		w.err = err
		return
	}
	if _, err := w.f.Write(append(b, '\n')); err != nil {
		w.err = fmt.Errorf("journal: appending to %s: %w", w.path, err)
	}
}

// Err returns the sticky write error, if any.
func (w *Writer) Err() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close flushes and closes the journal file, returning the sticky write
// error if one occurred.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		if err := w.f.Close(); err != nil && w.err == nil {
			w.err = err
		}
		w.f = nil
	}
	return w.err
}

// RepairTornTail truncates a trailing partial line (no terminating
// newline) left by a writer that crashed mid-append. The partial line was
// never loadable, but leaving it in place would corrupt the next append:
// O_APPEND glues the new line — possibly a metadata header — onto the
// torn tail, making both unparsable. The journal and the expt manifest
// both repair with it before appending; a missing file is fine.
func RepairTornTail(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	if size == 0 {
		return nil
	}
	buf := make([]byte, 64<<10)
	end := size // offset just past the last '\n'
	for off := size; off > 0; {
		n := int64(len(buf))
		if n > off {
			n = off
		}
		off -= n
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			end = off + int64(i) + 1
			break
		}
		end = 0 // no newline anywhere (yet): whole file is one torn line
	}
	if end == size {
		return nil
	}
	return f.Truncate(end)
}

// Journal is a loaded journal: the header plus every parsable event in
// file order.
type Journal struct {
	Meta   Meta
	Events []Event
}

// Read loads the journal at path. A torn final line is tolerated (it is
// skipped, as repair would), but the header must parse and carry the
// journal schema.
func Read(path string) (*Journal, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	j, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("journal: %s: %w", path, err)
	}
	return j, nil
}

// Parse reads a journal document from r.
func Parse(r io.Reader) (*Journal, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), maxLine)
	j := &Journal{}
	seenMeta := false
	for sc.Scan() {
		var line journalLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			continue // torn tail from an interrupted write
		}
		if line.Meta != nil && !seenMeta {
			j.Meta = *line.Meta
			seenMeta = true
			continue
		}
		if line.Kind == "" {
			continue
		}
		j.Events = append(j.Events, line.Event)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !seenMeta {
		return nil, fmt.Errorf("missing metadata header")
	}
	if j.Meta.Schema != Schema {
		return nil, fmt.Errorf("schema %q, want %q", j.Meta.Schema, Schema)
	}
	return j, nil
}

// knownKinds indexes every event kind Validate accepts.
var knownKinds = map[string]bool{
	KindJobSubmit: true, KindJobStart: true, KindJobRetry: true,
	KindJobResult: true, KindJobLease: true, KindJobReport: true,
	KindLeaseReclaim: true, KindWorkerJoin: true, KindWorkerEvict: true,
	KindBreakerTrip: true, KindLocalFallback: true, KindNetFault: true,
	KindManifestError: true,
}

// Validate checks the journal's structural invariants: schema, strictly
// increasing sequence numbers, non-decreasing host time, known kinds,
// and job-result events that carry a key and were preceded by the
// matching job-submit.
func (j *Journal) Validate() error {
	if j.Meta.Schema != Schema {
		return fmt.Errorf("journal: schema %q, want %q", j.Meta.Schema, Schema)
	}
	lastSeq, lastNS := 0, int64(0)
	submitted := map[string]bool{}
	for i, ev := range j.Events {
		if ev.Seq <= lastSeq {
			return fmt.Errorf("journal: event %d: seq %d not increasing (prev %d)", i, ev.Seq, lastSeq)
		}
		if ev.HostNS < lastNS {
			return fmt.Errorf("journal: event %d: host_ns %d went backwards (prev %d)", i, ev.HostNS, lastNS)
		}
		lastSeq, lastNS = ev.Seq, ev.HostNS
		if !knownKinds[ev.Kind] {
			return fmt.Errorf("journal: event %d: unknown kind %q", i, ev.Kind)
		}
		switch ev.Kind {
		case KindJobSubmit:
			submitted[ev.Key] = true
		case KindJobResult:
			if ev.Key == "" {
				return fmt.Errorf("journal: event %d: job-result without key", i)
			}
			if !submitted[ev.Key] {
				return fmt.Errorf("journal: event %d: job-result for %s before job-submit", i, ev.Key)
			}
		}
	}
	return nil
}

// Canonical projects the journal onto its deterministic core: the
// successfully completed jobs, stripped of every host-side artifact
// (timestamps, attempts, worker identity, host cost) and of the
// ran-vs-cached distinction — a cached job completed with identical
// simulated content — sorted by job key with the last result per key
// winning. Two campaigns over the same grid and seeds produce identical
// canonical journals no matter how the work was scheduled.
func (j *Journal) Canonical() []Event {
	byKey := map[string]Event{}
	for _, ev := range j.Events {
		if ev.Kind != KindJobResult {
			continue
		}
		if ev.Status != "ran" && ev.Status != "cached" {
			continue
		}
		byKey[ev.Key] = Event{
			Kind:      KindJobResult,
			Key:       ev.Key,
			Workload:  ev.Workload,
			Condition: ev.Condition,
			Seed:      ev.Seed,
			Status:    "done",
			VCycles:   ev.VCycles,
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Event, 0, len(keys))
	for _, k := range keys {
		out = append(out, byKey[k])
	}
	return out
}

// WriteCanonical writes the canonical projection as a journal document:
// the header followed by the canonical events, one JSONL line each.
func (j *Journal) WriteCanonical(w io.Writer) error {
	meta := Meta{Schema: Schema, Tool: j.Meta.Tool, Grid: j.Meta.Grid}
	b, err := json.Marshal(journalLine{Meta: &meta})
	if err != nil {
		return err
	}
	if _, err := w.Write(append(b, '\n')); err != nil {
		return err
	}
	for _, ev := range j.Canonical() {
		b, err := json.Marshal(journalLine{Event: ev})
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}
