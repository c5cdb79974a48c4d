package main

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Lanes are the tracks spans are drawn on. Jobs run on worker lanes
// 1..workers; each figure builder gets its own lane, since the twelve
// builders overlap in time and a track must hold properly nested spans.
const (
	laneDriver     = 0
	laneFigureBase = 100
)

// span is one host-time interval recorded around a call into the
// simulator. Parent is the id of the span that caused it (0 for none).
type span struct {
	ID, Parent int
	Name       string
	Lane       int
	Start, End time.Duration // since the recorder's origin
	// Wait is how long a job waited between its first submission and the
	// start of its execution (jobs only).
	Wait time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// spans records the benchmark's own spans in memory; they are written out
// when the workload ends. A nil *spans records nothing, so untraced runs
// pay one branch per call.
type spans struct {
	mu    sync.Mutex
	t0    time.Time
	list  []span
	busy  []bool // worker lanes in use, index = lane-1
	lanes map[int]string
}

func newSpans() *spans {
	return &spans{t0: time.Now(), lanes: map[int]string{laneDriver: "driver"}}
}

// begin opens a span and returns its id.
func (s *spans) begin(name string, parent, lane int) int {
	if s == nil {
		return 0
	}
	now := time.Since(s.t0)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Name: name, Lane: lane, Start: now, End: -1})
	return len(s.list)
}

// end closes span id.
func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	now := time.Since(s.t0)
	s.mu.Lock()
	s.list[id-1].End = now
	s.mu.Unlock()
}

// setWait records a job span's queue wait.
func (s *spans) setWait(id int, wait time.Duration) {
	if s == nil || id == 0 {
		return
	}
	s.mu.Lock()
	s.list[id-1].Wait = wait
	s.mu.Unlock()
}

// nameLane labels a lane in the exported trace.
func (s *spans) nameLane(lane int, name string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.lanes[lane] = name
	s.mu.Unlock()
}

// acquireLane claims the lowest free worker lane (1-based).
func (s *spans) acquireLane() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, b := range s.busy {
		if !b {
			s.busy[i] = true
			return i + 1
		}
	}
	s.busy = append(s.busy, true)
	lane := len(s.busy)
	if _, ok := s.lanes[lane]; !ok {
		s.lanes[lane] = "worker " + strconv.Itoa(lane)
	}
	return lane
}

func (s *spans) releaseLane(lane int) {
	if s == nil || lane == 0 {
		return
	}
	s.mu.Lock()
	s.busy[lane-1] = false
	s.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (s *spans) snapshot() []span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]span(nil), s.list...)
}

// children returns the spans whose parent is id.
func children(all []span, id int) []span {
	var out []span
	for _, c := range all {
		if c.Parent == id {
			out = append(out, c)
		}
	}
	return out
}

// selfTime is span id's duration minus the part of its interval that its
// child spans cover. Overlapping children (concurrent jobs) count once.
func selfTime(all []span, id int) time.Duration {
	p := all[id-1]
	var iv [][2]time.Duration
	for _, c := range children(all, id) {
		lo, hi := max(c.Start, p.Start), min(c.End, p.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	return p.dur() - union(iv)
}

// union is the total length covered by the intervals.
func union(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	first := true
	for _, x := range iv {
		switch {
		case first || x[0] >= end:
			total += x[1] - x[0]
			end = x[1]
			first = false
		case x[1] > end:
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// underCovered is how long within [lo, hi) fewer than k of the intervals
// are active: with k workers, the time some worker sat idle.
func underCovered(iv [][2]time.Duration, lo, hi time.Duration, k int) time.Duration {
	type edge struct {
		t     time.Duration
		delta int
	}
	edges := []edge{{lo, 0}, {hi, 0}}
	for _, x := range iv {
		edges = append(edges, edge{max(x[0], lo), 1}, edge{min(x[1], hi), -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].delta < edges[j].delta
	})
	var out time.Duration
	active := 0
	for i, e := range edges {
		if i > 0 && active < k && e.t > edges[i-1].t {
			out += e.t - edges[i-1].t
		}
		active += e.delta
	}
	return out
}

// writeChrome writes the spans as a Chrome trace-event JSON document,
// which ui.perfetto.dev and chrome://tracing open directly.
func writeChrome(w io.Writer, all []span, lanes map[int]string, process string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	evs := []event{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": process}}}
	ids := make([]int, 0, len(lanes))
	for lane := range lanes {
		ids = append(ids, lane)
	}
	sort.Ints(ids)
	for _, lane := range ids {
		evs = append(evs,
			event{Name: "thread_name", Ph: "M", Pid: 1, Tid: lane, Args: map[string]any{"name": lanes[lane]}},
			event{Name: "thread_sort_index", Ph: "M", Pid: 1, Tid: lane, Args: map[string]any{"sort_index": lane}})
	}
	for _, s := range all {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "self_us": us(selfTime(all, s.ID))}
		if s.Wait > 0 {
			args["queue_wait_us"] = us(s.Wait)
		}
		evs = append(evs, event{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.dur()), Pid: 1, Tid: s.Lane, Args: args})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}
