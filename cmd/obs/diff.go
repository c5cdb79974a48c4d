package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchDoc mirrors cmd/hostbench's BENCH_host.json document
// (cornucopia-hostbench/v1) closely enough to diff it. Fields it does not
// name, such as the speedup ratios older documents carry, are ignored.
type benchDoc struct {
	Schema     string `json:"schema"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Benchmarks []struct {
		Name    string  `json:"name"`
		Iters   int     `json:"iters"`
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"benchmarks"`
}

// hostbenchSchema is the document schema diff accepts.
const hostbenchSchema = "cornucopia-hostbench/v1"

func loadBenchDoc(path string) (*benchDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != hostbenchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, hostbenchSchema)
	}
	return &doc, nil
}

// cmdDiff prints one row per benchmark of two BENCH_host.json documents
// to w and returns the verdict: false when any benchmark slowed down by
// more than -max-regress percent.
func cmdDiff(args []string, w io.Writer) (bool, error) {
	fs := flag.NewFlagSet("obs diff", flag.ContinueOnError)
	maxRegress := fs.Float64("max-regress", 10,
		"fail when a benchmark slows down by more than this percent")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() != 2 {
		return false, fmt.Errorf("want exactly two arguments: OLD.json NEW.json")
	}
	oldDoc, err := loadBenchDoc(fs.Arg(0))
	if err != nil {
		return false, err
	}
	newDoc, err := loadBenchDoc(fs.Arg(1))
	if err != nil {
		return false, err
	}
	if oldDoc.GOARCH != newDoc.GOARCH || oldDoc.GOOS != newDoc.GOOS {
		fmt.Fprintf(w, "note: comparing across platforms (%s/%s vs %s/%s); host numbers are not like-for-like\n",
			oldDoc.GOOS, oldDoc.GOARCH, newDoc.GOOS, newDoc.GOARCH)
	}

	oldNS := map[string]float64{}
	for _, b := range oldDoc.Benchmarks {
		oldNS[b.Name] = b.NsPerOp
	}
	ok := true
	fmt.Fprintf(w, "%-24s %14s %14s %9s\n", "BENCHMARK", "OLD ns/op", "NEW ns/op", "DELTA")
	for _, b := range newDoc.Benchmarks {
		old, found := oldNS[b.Name]
		if !found {
			fmt.Fprintf(w, "%-24s %14s %14.1f %9s\n", b.Name, "-", b.NsPerOp, "new")
			continue
		}
		delete(oldNS, b.Name)
		deltaPct := (b.NsPerOp - old) / old * 100
		mark := ""
		if deltaPct > *maxRegress {
			mark = "  REGRESSION"
			ok = false
		}
		fmt.Fprintf(w, "%-24s %14.1f %14.1f %+8.1f%%%s\n", b.Name, old, b.NsPerOp, deltaPct, mark)
	}
	gone := make([]string, 0, len(oldNS))
	for name := range oldNS {
		gone = append(gone, name)
	}
	sort.Strings(gone)
	for _, name := range gone {
		fmt.Fprintf(w, "%-24s %14.1f %14s %9s\n", name, oldNS[name], "-", "gone")
	}

	if !ok {
		fmt.Fprintf(w, "\ndiff: regression beyond the %.1f%% threshold\n", *maxRegress)
		return false, nil
	}
	fmt.Fprintf(w, "\ndiff: within the %.1f%% threshold\n", *maxRegress)
	return true, nil
}
