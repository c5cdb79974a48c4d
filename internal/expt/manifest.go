package expt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/journal"
)

// Manifest is a content-hash-keyed, append-only record of completed jobs
// on disk: one JSON line per job, `{"key": "...", "host_ms": ..,
// "result": {...}}`. A pool with a manifest attached serves
// previously-completed jobs from it and appends every newly-completed
// one, so an interrupted or re-invoked sweep resumes where it left off. A
// line truncated by an interruption mid-write is skipped on load (and
// rewritten when its job re-runs).
//
// host_ms records what the job cost the host when it actually ran, so
// slow grid cells stay visible — in the manifest itself, in resumed
// documents, and on the /jobs endpoint — without profiling a rerun.
type Manifest struct {
	path string

	mu   sync.Mutex
	done map[string]manifestEntry
	meta *ManifestMeta
	f    *os.File
	// lines counts data lines on disk (loaded plus appended); when it
	// exceeds len(done), superseded duplicates are wasting space and
	// Compact can reclaim them.
	lines int
}

type manifestEntry struct {
	res  *JobResult
	host time.Duration
}

type manifestLine struct {
	Key    string        `json:"key,omitempty"`
	HostMS float64       `json:"host_ms,omitempty"`
	Result *JobResult    `json:"result,omitempty"`
	Meta   *ManifestMeta `json:"meta,omitempty"`
}

// ManifestSchema versions the manifest header line.
const ManifestSchema = "cornucopia-manifest/v1"

// ManifestMeta is the manifest's first line: which tool wrote it and the
// canonical description of the grid it caches. A resumed sweep refuses a
// manifest whose meta does not match its own request, instead of silently
// mixing results from different grids.
type ManifestMeta struct {
	Schema string `json:"schema"`
	Tool   string `json:"tool"`
	Grid   string `json:"grid"`
}

// maxManifestLine bounds one manifest line; latency-sample-heavy jobs
// (gRPC QPS) can run to several MB of JSON.
const maxManifestLine = 256 << 20

// OpenManifestFor opens the manifest at path for the given tool/grid
// combination. A fresh (absent or empty) manifest adopts meta as its
// header; an existing one must carry a matching header, or the open fails
// with a description of the mismatch — results cached for one grid are
// never served to another.
func OpenManifestFor(path string, meta ManifestMeta) (*Manifest, error) {
	if meta.Schema == "" {
		meta.Schema = ManifestSchema
	}
	m, got, err := openManifest(path)
	if err != nil {
		return nil, err
	}
	adopt := func() error {
		b, err := json.Marshal(manifestLine{Meta: &meta})
		if err != nil {
			return err
		}
		if _, err := m.f.Write(append(b, '\n')); err != nil {
			return fmt.Errorf("expt: writing manifest header %s: %w", path, err)
		}
		m.meta = &meta
		return nil
	}
	switch {
	case got == nil && m.Len() == 0:
		if err := adopt(); err != nil {
			m.Close()
			return nil, err
		}
	case got == nil:
		m.Close()
		return nil, fmt.Errorf(
			"expt: manifest %s predates metadata headers and cannot be validated against this request; use a fresh -resume path",
			path)
	case got.Schema != meta.Schema || got.Tool != meta.Tool || got.Grid != meta.Grid:
		m.Close()
		return nil, fmt.Errorf(
			"expt: manifest %s was written for a different run (tool %q grid %q, want tool %q grid %q); rerun with matching flags or use a fresh -resume path",
			path, got.Tool, got.Grid, meta.Tool, meta.Grid)
	}
	return m, nil
}

func openManifest(path string) (*Manifest, *ManifestMeta, error) {
	// A line torn by a crash mid-Record is truncated before appending;
	// its job simply re-runs.
	if err := journal.RepairTornTail(path); err != nil {
		return nil, nil, fmt.Errorf("expt: repairing manifest %s: %w", path, err)
	}
	m, err := loadManifest(path)
	if os.IsNotExist(err) {
		m, err = &Manifest{path: path, done: map[string]manifestEntry{}}, nil
	}
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	m.f = f
	return m, m.meta, nil
}

// ReadManifest returns every completed job on record in the manifest at
// path, sorted by key, without opening the file for writing: a missing
// file is an error, and a line torn by a writer still appending is
// skipped rather than repaired. It is the postmortem reader's entry
// point (cmd/obs), safe against a live campaign's manifest.
func ReadManifest(path string) ([]Completed, error) {
	m, err := loadManifest(path)
	if err != nil {
		return nil, err
	}
	return m.Entries(), nil
}

// loadManifest parses the manifest at path into a Manifest with no
// append handle, skipping any line that does not decode (a torn tail
// from an interrupted write). A missing file returns the os.Open error.
func loadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m := &Manifest{path: path, done: map[string]manifestEntry{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), maxManifestLine)
	for sc.Scan() {
		var line manifestLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			continue // torn tail from an interrupted write
		}
		if line.Meta != nil && m.meta == nil {
			m.meta = line.Meta
			continue
		}
		if line.Key == "" || line.Result == nil {
			continue
		}
		m.lines++
		m.done[line.Key] = manifestEntry{
			res:  line.Result,
			host: time.Duration(line.HostMS * float64(time.Millisecond)),
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("expt: reading manifest %s: %w", path, err)
	}
	return m, nil
}

// Meta returns the manifest's header, if it has one.
func (m *Manifest) Meta() *ManifestMeta {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.meta
}

// Lookup returns the recorded result for key, if any, along with the host
// wall-clock time the job cost when it originally ran (zero for entries
// written before host times were recorded).
func (m *Manifest) Lookup(key string) (r *JobResult, host time.Duration, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.done[key]
	return e.res, e.host, ok
}

// Record appends a completed job and the host wall-clock time its final
// attempt took. Each line is written atomically with respect to other
// Record calls; durability against a crash mid-line is handled by the
// torn-tail skip on load.
func (m *Manifest) Record(key string, r *JobResult, host time.Duration) error {
	b, err := json.Marshal(manifestLine{
		Key:    key,
		HostMS: float64(host.Microseconds()) / 1e3,
		Result: r,
	})
	if err != nil {
		return err
	}
	b = append(b, '\n')
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.f.Write(b); err != nil {
		return fmt.Errorf("expt: appending to manifest %s: %w", m.path, err)
	}
	m.lines++
	m.done[key] = manifestEntry{res: r, host: host}
	return nil
}

// Compact rewrites the manifest in place, keeping the metadata header and
// the surviving entry for each key while dropping superseded duplicates
// (jobs recorded more than once — e.g. re-run after their original line
// was torn by a crash, or re-executed when a distributed lease was
// reclaimed just before the original worker's result arrived). Long-lived
// campaigns that resume many times stay bounded by their live key count
// instead of their append history. Entries are rewritten sorted by key,
// so a compacted manifest is deterministic for a given key set. Returns
// how many duplicate lines were dropped.
func (m *Manifest) Compact() (dropped int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dropped = m.lines - len(m.done)
	if dropped <= 0 {
		return 0, nil
	}
	tmp := m.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("expt: compacting manifest %s: %w", m.path, err)
	}
	w := bufio.NewWriter(f)
	writeLine := func(line manifestLine) error {
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		_, err = w.Write(b)
		return err
	}
	fail := func(e error) (int, error) {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("expt: compacting manifest %s: %w", m.path, e)
	}
	if m.meta != nil {
		if err := writeLine(manifestLine{Meta: m.meta}); err != nil {
			return fail(err)
		}
	}
	keys := make([]string, 0, len(m.done))
	for k := range m.done {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := m.done[k]
		if err := writeLine(manifestLine{
			Key:    k,
			HostMS: float64(e.host.Microseconds()) / 1e3,
			Result: e.res,
		}); err != nil {
			return fail(err)
		}
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, m.path); err != nil {
		return fail(err)
	}
	// Swap the append handle onto the compacted file; the old handle
	// points at the unlinked inode.
	nf, err := os.OpenFile(m.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, fmt.Errorf("expt: reopening compacted manifest %s: %w", m.path, err)
	}
	m.f.Close()
	m.f = nf
	m.lines = len(m.done)
	return dropped, nil
}

// Len returns the number of completed jobs on record.
func (m *Manifest) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.done)
}

// Entries returns every completed job on record, sorted by key — the
// postmortem reader's view of a campaign (cmd/obs). Cached is true on
// every row: by definition a manifest entry was served from disk.
func (m *Manifest) Entries() []Completed {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Completed, 0, len(m.done))
	for k, e := range m.done {
		out = append(out, Completed{Key: k, Result: e.res, Cached: true, Host: e.host})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Close closes the underlying file.
func (m *Manifest) Close() error { return m.f.Close() }
