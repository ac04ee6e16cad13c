package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// the benchmark's own loop (no layer is instrumented from inside).
// Spans of one op share its op number; parent is the id of the span
// that was open when this one began, -1 for a root.
type span struct {
	name       string
	id, parent int32
	op         int32
	start, end int64 // ns since the tracer was made
}

// tracer keeps spans in a preallocated slice and writes them when the
// process ends. A nil *tracer records nothing, so an op's code is the
// same traced and untraced.
type tracer struct {
	t0    time.Time
	spans []span
	open  int32 // id of the innermost open span, -1 for none
	op    int32
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity), open: -1}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, id: id, parent: t.open, op: t.op, start: int64(time.Since(t.t0))})
	t.open = id
	return id
}

// end closes span id; spans close in the reverse order they opened.
func (t *tracer) end(id int32) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[id]
	s.end = int64(time.Since(t.t0))
	t.open = s.parent
	return time.Duration(s.end - s.start)
}

// selfTimes returns, per span, its duration minus the part of it that
// its direct children cover. spans is a run of consecutive spans; a
// parent outside it is left alone.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	if len(spans) == 0 {
		return self
	}
	first := spans[0].id
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= first {
			self[s.parent-first] -= s.end - s.start
		}
	}
	return self
}

// spanTotal is the count and summed self time of the spans of one name.
type spanTotal struct {
	calls int
	self  int64
}

func totalsByName(spans []span) map[string]spanTotal {
	self := selfTimes(spans)
	out := map[string]spanTotal{}
	for i, s := range spans {
		t := out[s.name]
		t.calls++
		t.self += self[i]
		out[s.name] = t
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), which ui.perfetto.dev opens directly.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: 1,
			Args: map[string]any{"id": s.id, "parent": s.parent, "op": s.op, "start_ns": s.start, "end_ns": s.end},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// layerOf returns the package part of a "<layer>.<call>" span name.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}
