// The Perfetto writer: every Chrome trace_event document the repository
// produces — one run's trace (cmd/cornucopia -trace) as much as a whole
// campaign's merged timeline (sweep/chaos -timeline, obs timeline) — is
// rendered here from the same Events, with one span pairing and one set
// of kind-specific argument names. Each worker is a named process track;
// each job is a span on its "jobs" thread, with its events re-based onto
// the timeline on per-core and machine threads.
//
// Two modes:
//
//   - live: jobs are grouped by the worker that ran them (process per
//     worker, "local" for pool runs), with host-side detail (host_ms,
//     worker) in the job span args. Useful for seeing fleet utilization.
//   - canonical: every host-side artifact is stripped — one "campaign"
//     process, jobs sorted by key and laid head-to-tail in simulated
//     time — so the timeline is byte-identical for a given grid and
//     seed no matter how many workers ran it. This is the document the
//     byte-identity tests and the fleet smoke pin, and the single-run export.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/bus"
)

// TimelineJob is one completed job's contribution to a timeline. Trace
// holds the job's retained events (empty when the job ran untraced).
type TimelineJob struct {
	Key       string
	Workload  string
	Condition string
	Seed      int64
	// Worker names the process track in live mode ("" renders as
	// "local"); ignored in canonical mode.
	Worker string
	HostMS float64
	// WallCycles and HzGHz place the job in simulated time.
	WallCycles   uint64
	HzGHz        float64
	Trace        []Event
	TraceDropped uint64
}

// TimelineSchema names the timeline document in otherData.
const TimelineSchema = "cornucopia-timeline/v1"

// machineTID is the thread of machine-wide events (Core -1). Thread 0 is
// each process's jobs track and core c is thread 1+c.
const machineTID = 1001

func (ev Event) tid() int {
	if ev.Core < 0 {
		return machineTID
	}
	return 1 + int(ev.Core)
}

// chromeEvent is one trace_event record. Durations and timestamps are in
// microseconds, as the format requires.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeArgs names the event's payload: epoch, agent, and the kind's
// named args (addresses in hex).
func (ev Event) chromeArgs() map[string]any {
	args := map[string]any{
		"epoch": ev.Epoch,
		"agent": bus.Agent(ev.Agent).String(),
	}
	n1, n2 := argNames(ev.Kind)
	if n1 != "" {
		if hexArg(ev.Kind) {
			args[n1] = fmt.Sprintf("0x%x", ev.Arg)
		} else {
			args[n1] = ev.Arg
		}
	}
	if n2 != "" {
		args[n2] = ev.Arg2
	}
	return args
}

// chromeName renders the display name of an event.
func chromeName(ev Event) string {
	switch ev.Kind {
	case KindEpoch:
		return fmt.Sprintf("epoch %d", ev.Epoch)
	case KindSweep:
		return fmt.Sprintf("sweep w%d", ev.Arg)
	}
	return ev.Kind.String()
}

// WriteTimeline renders the jobs as one Chrome trace_event JSON
// document. See the file comment for the live/canonical split.
func WriteTimeline(w io.Writer, jobs []TimelineJob, canonical bool) error {
	sorted := append([]TimelineJob(nil), jobs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })

	// Partition into process tracks.
	type track struct {
		name string
		jobs []TimelineJob
	}
	var tracks []track
	if canonical {
		tracks = []track{{name: "campaign", jobs: sorted}}
	} else {
		byWorker := map[string][]TimelineJob{}
		var names []string
		for _, j := range sorted {
			name := j.Worker
			if name == "" {
				name = "local"
			}
			if _, ok := byWorker[name]; !ok {
				names = append(names, name)
			}
			byWorker[name] = append(byWorker[name], j)
		}
		sort.Strings(names)
		for _, n := range names {
			tracks = append(tracks, track{name: n, jobs: byWorker[n]})
		}
	}

	var out []chromeEvent
	for pi, tr := range tracks {
		pid := pi + 1
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": tr.name},
		})
		// Thread metadata: the jobs track plus every tid the events
		// touch, in sorted order.
		tids := map[int]string{0: "jobs"}
		for _, j := range tr.jobs {
			for _, ev := range j.Trace {
				tid := ev.tid()
				if _, ok := tids[tid]; !ok {
					if tid == machineTID {
						tids[tid] = "machine"
					} else {
						tids[tid] = fmt.Sprintf("core %d", tid-1)
					}
				}
			}
		}
		order := make([]int, 0, len(tids))
		for tid := range tids {
			order = append(order, tid)
		}
		sort.Ints(order)
		for _, tid := range order {
			out = append(out, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": tids[tid]},
			})
		}

		// Jobs laid head-to-tail in simulated time.
		var cursor float64
		for _, j := range tr.jobs {
			hz := j.HzGHz
			if hz <= 0 {
				hz = 1
			}
			toUS := func(cycle uint64) float64 { return float64(cycle) / (hz * 1e3) }
			args := map[string]any{}
			if j.Key != "" {
				args["key"] = j.Key
			}
			if j.TraceDropped > 0 {
				args["trace_dropped"] = j.TraceDropped
			}
			if !canonical {
				args["host_ms"] = j.HostMS
				args["worker"] = tr.name
			}
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("%s/%s seed=%d", j.Workload, j.Condition, j.Seed),
				Cat:  "job", Ph: "X", Ts: cursor, Dur: toUS(j.WallCycles),
				Pid: pid, Tid: 0, Args: args,
			})
			out = appendEvents(out, j.Trace, pid, cursor, toUS)
			cursor += toUS(j.WallCycles)
		}
	}

	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     out,
		"displayTimeUnit": "ns",
		"otherData": map[string]any{
			"schema": TimelineSchema,
			"source": "repro/internal/trace",
		},
	})
}

// appendEvents renders one job's events at the given timeline offset.
// Each End is paired with the innermost open Begin of the same kind on
// the same thread into one complete ("X") span whose args merge both
// ends (End-side args carry the totals: caps revoked, …). Because the
// ring keeps the most recent events, an End can outlive its Begin;
// such orphans, and spans still open at the end, are dropped so the
// document always loads. Instants become thread-scoped "i" events.
func appendEvents(out []chromeEvent, events []Event, pid int, offset float64, toUS func(uint64) float64) []chromeEvent {
	type open struct {
		ev  Event
		idx int // reserved slot, filled when the End arrives
	}
	stacks := map[[2]int][]open{}
	first := len(out)
	for _, ev := range events {
		key := [2]int{ev.tid(), int(ev.Kind)}
		switch ev.Phase {
		case PhaseBegin:
			out = append(out, chromeEvent{}) // placeholder keeps nesting order
			stacks[key] = append(stacks[key], open{ev: ev, idx: len(out) - 1})
		case PhaseEnd:
			st := stacks[key]
			if len(st) == 0 {
				continue // Begin lost to ring wrap
			}
			o := st[len(st)-1]
			stacks[key] = st[:len(st)-1]
			args := o.ev.chromeArgs()
			for k, v := range ev.chromeArgs() {
				args[k] = v
			}
			out[o.idx] = chromeEvent{
				Name: chromeName(ev), Cat: ev.Kind.String(), Ph: "X",
				Ts: offset + toUS(o.ev.Cycle), Dur: toUS(ev.Cycle) - toUS(o.ev.Cycle),
				Pid: pid, Tid: key[0], Args: args,
			}
		default:
			out = append(out, chromeEvent{
				Name: chromeName(ev), Cat: ev.Kind.String(), Ph: "i",
				Ts: offset + toUS(ev.Cycle), Pid: pid, Tid: key[0], S: "t",
				Args: ev.chromeArgs(),
			})
		}
	}
	// Drop placeholders whose End never arrived (still-open spans).
	final := out[:first]
	for _, ce := range out[first:] {
		if ce.Ph != "" {
			final = append(final, ce)
		}
	}
	return final
}
