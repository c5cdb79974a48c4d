package expt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/harness"
)

// documentDigest is the recorded sha256 of the cornucopia-sweep/v1
// document pinnedDocuments builds. It was recorded while the sweep kernel,
// sim engine and memory paths were still selectable, and the document
// hashed the same at -workers 1 and 8 under the word and per-granule
// kernels, the fast and classic engines, and the sparse and flat memory
// paths. A change that means to alter simulated behaviour re-records it
// (the failure message prints the new digest) and says so.
const documentDigest = "bb36b553d86dd1a6911d85b34f3962aa376758d177e2fc0d2b6ccc838f620d01"

// documents memoizes pinnedDocuments' output: the three tests below pin
// the same grid, so it is simulated once per test binary.
var documents map[int][]byte

// pinnedDocuments runs one grid through pools at -workers 1 and 8 and
// returns each pool's cornucopia-sweep/v1 document, keyed by worker count.
// The grid mixes pgbench (a revocation-heavy server, two seeds) with the
// heapscale workload (the million-allocation axis the sparse memory paths
// exist for), under the two sweeping strategies that exercise the load
// barrier and the stop-the-world sweep. Host wall-time is the one
// legitimately nondeterministic field, so it is zeroed; everything else —
// job keys, headline cycles, aggregates, pool stats — is kept.
func pinnedDocuments(t *testing.T) map[int][]byte {
	t.Helper()
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	if documents != nil {
		return documents
	}
	var jobs []Job
	for _, cond := range harness.SweepConditions()[:2] {
		for _, seed := range []int64{1, 1000004} {
			cfg := harness.DefaultConfig()
			cfg.Scale = 256
			cfg.Seed = seed
			jobs = append(jobs, Job{Workload: PgbenchWorkload(200), Cond: cond, Cfg: cfg})
		}
		hcfg := harness.DefaultConfig()
		hcfg.Scale = 128
		hcfg.Seed = 7
		jobs = append(jobs, Job{Workload: HeapScaleWorkload(1<<20, 1<<17), Cond: cond, Cfg: hcfg})
	}

	build := func(workers int) []byte {
		p := NewPool(PoolConfig{Workers: workers})
		p.Prefetch(jobs)
		for _, j := range jobs {
			if _, err := p.Get(j); err != nil {
				t.Fatal(err)
			}
		}
		// Workers/reps/scale are invocation metadata, passed identically so
		// only computed content can differ between pools.
		doc := BuildDocument(p, nil, 1, 1, 256)
		for i := range doc.Jobs {
			doc.Jobs[i].HostMillis = 0
		}
		var buf bytes.Buffer
		if err := doc.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	documents = map[int][]byte{1: build(1), 8: build(8)}
	return documents
}

// requirePinnedDocument is the orchestrator-level pin: the documents at
// -workers 1 and 8 must be byte-identical and match the recorded digest.
func requirePinnedDocument(t *testing.T) {
	docs := pinnedDocuments(t)
	if !bytes.Equal(docs[1], docs[8]) {
		t.Errorf("workers=8 document differs from workers=1 (%d vs %d bytes)", len(docs[8]), len(docs[1]))
	}
	sum := sha256.Sum256(docs[1])
	if got := hex.EncodeToString(sum[:]); got != documentDigest {
		t.Errorf("document digest %s, recorded %s — the simulated outcome changed", got, documentDigest)
	}
}

// TestDocumentIdenticalAcrossEnginesAndWorkers pins the fast sim engine's
// documents to the classic engine's recorded digest at any worker count.
func TestDocumentIdenticalAcrossEnginesAndWorkers(t *testing.T) { requirePinnedDocument(t) }

// TestDocumentIdenticalAcrossKernelsAndWorkers pins the word-wise sweep
// kernel's documents to the per-granule kernel's recorded digest at any
// worker count.
func TestDocumentIdenticalAcrossKernelsAndWorkers(t *testing.T) { requirePinnedDocument(t) }

// TestDocumentIdenticalAcrossMemPaths pins the sparse memory paths'
// documents — heapscale's million-allocation jobs included — to the flat
// paths' recorded digest.
func TestDocumentIdenticalAcrossMemPaths(t *testing.T) { requirePinnedDocument(t) }
