// Command obs is the campaign postmortem tool: it joins the artifacts a
// campaign leaves behind — the -journal event log, the -resume manifest,
// and the telemetry snapshots riding inside it — into reports a human
// reads after the fact, plus schema validation and canonicalization for
// CI byte-identity checks.
//
// Usage:
//
//	obs report   -journal FILE [-manifest FILE] [-format text|json|html]
//	             [-out FILE] [-top N]
//	obs validate -journal FILE
//	obs canon    -journal FILE [-out FILE]
//	obs timeline -manifest FILE [-journal FILE] [-canonical] [-out FILE]
//
// report builds the campaign postmortem: per-worker utilization, host
// cost by (workload, condition), the incident timeline (retries, lease
// reclaims, breaker trips, evictions, injected network faults, local
// fallback), coordinated-omission-correct job latency percentiles
// (submit-to-result, queue wait included), and — when -manifest is given
// — the top simulated-cycle attribution stacks from the merged telemetry.
//
// validate checks a journal against the cornucopia-journal/v1 schema:
// header present, sequence numbers strictly increasing, host timestamps
// monotone, every kind known, every result preceded by its submit.
//
// canon writes the journal's canonical form: only successful job results,
// host-side metadata stripped, sorted by job key — byte-identical between
// a local pool run and a distributed run of the same seeded grid.
//
// timeline rebuilds the merged Chrome/Perfetto timeline from a manifest
// (the same output as sweep/chaos -timeline, but after the fact); with
// -journal the jobs are attributed to the workers that ran them.
//
// report and timeline only read the manifest (expt.ReadManifest), so they
// are safe to point at a live campaign's manifest mid-write.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/expt"
	"repro/internal/expt/cliflags"
	"repro/internal/journal"
	"repro/internal/trace"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  obs report   -journal FILE [-manifest FILE] [-format text|json|html] [-out FILE] [-top N]
  obs validate -journal FILE
  obs canon    -journal FILE [-out FILE]
  obs timeline -manifest FILE [-journal FILE] [-canonical] [-out FILE]`)
	os.Exit(2)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("obs: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "report":
		cmdReport(os.Args[2:])
	case "validate":
		cmdValidate(os.Args[2:])
	case "canon":
		cmdCanon(os.Args[2:])
	case "timeline":
		cmdTimeline(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		log.Printf("unknown subcommand %q", os.Args[1])
		usage()
	}
}

// outFile resolves -out: stdout when empty or "-".
func outFile(path string) (*os.File, func() error, error) {
	if path == "" || path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// journalArg lets report, validate and canon take their journal as one
// positional argument in place of -journal FILE; any other positional
// exits 2.
func journalArg(fs *flag.FlagSet, jpath *string) {
	if *jpath != "" {
		cliflags.ExitOnArgs(fs, 0)
		return
	}
	cliflags.ExitOnArgs(fs, 1)
	*jpath = fs.Arg(0)
}

func cmdValidate(args []string) {
	fs := flag.NewFlagSet("obs validate", flag.ExitOnError)
	jpath := fs.String("journal", "", "campaign journal to validate (required)")
	fs.Parse(args)
	journalArg(fs, jpath)
	if *jpath == "" {
		log.Fatal("validate: -journal FILE is required")
	}
	j, err := journal.Read(*jpath)
	if err != nil {
		log.Fatalf("validate: %v", err)
	}
	if err := j.Validate(); err != nil {
		log.Fatalf("validate: %s: %v", *jpath, err)
	}
	fmt.Printf("%s: valid %s journal: tool=%s %d event(s), %d canonical result(s)\n",
		*jpath, j.Meta.Schema, j.Meta.Tool, len(j.Events), len(j.Canonical()))
}

func cmdCanon(args []string) {
	fs := flag.NewFlagSet("obs canon", flag.ExitOnError)
	jpath := fs.String("journal", "", "campaign journal to canonicalize (required)")
	out := fs.String("out", "", "write the canonical journal here (default stdout)")
	fs.Parse(args)
	journalArg(fs, jpath)
	if *jpath == "" {
		log.Fatal("canon: -journal FILE is required")
	}
	j, err := journal.Read(*jpath)
	if err != nil {
		log.Fatalf("canon: %v", err)
	}
	w, closeOut, err := outFile(*out)
	if err != nil {
		log.Fatalf("canon: %v", err)
	}
	if err := j.WriteCanonical(w); err != nil {
		log.Fatalf("canon: %v", err)
	}
	if err := closeOut(); err != nil {
		log.Fatalf("canon: %v", err)
	}
}

func cmdTimeline(args []string) {
	fs := flag.NewFlagSet("obs timeline", flag.ExitOnError)
	mpath := fs.String("manifest", "", "campaign manifest holding the completed jobs (required)")
	jpath := fs.String("journal", "", "campaign journal for worker attribution (optional)")
	canonical := fs.Bool("canonical", false, "strip host metadata: one deterministic campaign track")
	out := fs.String("out", "", "write the timeline JSON here (default stdout)")
	fs.Parse(args)
	cliflags.ExitOnArgs(fs, 0)
	if *mpath == "" {
		log.Fatal("timeline: -manifest FILE is required")
	}
	entries, err := expt.ReadManifest(*mpath)
	if err != nil {
		log.Fatalf("timeline: %v", err)
	}

	// Worker attribution: the journal's job-report events say which worker
	// delivered each key; join events map worker ids to display names.
	workers := map[string]string{}
	if *jpath != "" {
		j, err := journal.Read(*jpath)
		if err != nil {
			log.Fatalf("timeline: %v", err)
		}
		names := map[string]string{}
		for _, ev := range j.Events {
			switch ev.Kind {
			case journal.KindWorkerJoin:
				names[ev.Worker] = ev.Detail
			case journal.KindJobReport:
				if ev.Status == "ran" || ev.Status == "cached" {
					name := names[ev.Worker]
					if name == "" {
						name = ev.Worker
					}
					workers[ev.Key] = name
				}
			}
		}
	}

	jobs := expt.TimelineJobs(entries, workers)
	w, closeOut, err := outFile(*out)
	if err != nil {
		log.Fatalf("timeline: %v", err)
	}
	if err := trace.WriteTimeline(w, jobs, *canonical); err != nil {
		log.Fatalf("timeline: %v", err)
	}
	if err := closeOut(); err != nil {
		log.Fatalf("timeline: %v", err)
	}
	if *out != "" && *out != "-" {
		fmt.Fprintf(os.Stderr, "obs: wrote %s (%d job track(s))\n", *out, len(jobs))
	}
}
