// Package telemetry is the run- and fleet-level metrics layer: an
// allocation-conscious registry of counters, gauges and histograms with
// fixed label sets, exported as a JSON snapshot (-telemetry-json). It
// also holds the run ledger (ledger.go): structured per-invocation records
// appended to runs.jsonl that `perf ledger` (cmd/perf) gates regressions on.
//
// Design. A metric family is registered once with its full label-key
// set; With(values...) resolves a series handle whose hot path is a
// single atomic op (counters and gauges) or a bucket search plus three
// atomics (histograms). Handle resolution takes a lock and may
// allocate; steady-state instrumentation resolves handles at setup time
// and keeps them. Registration is idempotent: re-registering the same
// name with the same kind and label keys returns the existing family,
// so independent subsystems can declare the metrics they share.
//
// Snapshot() freezes the whole registry into a deterministic value —
// families sorted by name, series by label values — which the exporters
// and the tests consume; callback-backed families (CounterFunc /
// GaugeFunc) are evaluated only at snapshot time, so instrumenting a
// subsystem that already keeps its own counters (internal/ccache) costs
// nothing on its hot path.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type, named after the Prometheus types the
// text exposition advertises.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Registry holds metric families. The zero value is not usable;
// construct with New. A Registry is safe for concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// family is one named metric with a fixed label-key set.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histogram upper bounds, sorted, finite

	mu     sync.Mutex
	series map[string]*child
	fn     func() float64 // callback-backed families (no labels, one series)
}

// child is one labeled series of a family; exactly one of c/g/h is set.
type child struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Counter is a monotonically increasing integer series. Add and Inc are
// a single atomic add.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n must be non-negative; negative
// deltas are ignored so a counter can never run backwards).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a series that can go up and down. Set and Add are atomic on
// the float64 bit pattern.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta (compare-and-swap loop on the bit pattern).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. Observe finds the bucket by
// linear scan (bucket counts are small) and performs three atomic ops.
type Histogram struct {
	upper   []float64 // finite upper bounds, ascending
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	for i, ub := range h.upper {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// DefBuckets is a general-purpose latency bucket layout in seconds.
var DefBuckets = []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30}

// CounterVec is a counter family handle.
type CounterVec struct{ f *family }

// GaugeVec is a gauge family handle.
type GaugeVec struct{ f *family }

// HistogramVec is a histogram family handle.
type HistogramVec struct{ f *family }

// validName reports whether s is a legal metric or label name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register returns the family for name, creating it on first use and
// panicking on a conflicting redeclaration — a conflict is a programmer
// error no caller can meaningfully handle.
func (r *Registry) register(name, help string, kind Kind, labels []string, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s%v, was %s%v",
				name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...),
		series: map[string]*child{},
	}
	if kind == KindHistogram {
		if len(buckets) == 0 {
			buckets = DefBuckets
		}
		f.buckets = append([]float64(nil), buckets...)
		sort.Float64s(f.buckets)
	}
	r.fams[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or finds) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, KindCounter, labels, nil)}
}

// Gauge registers (or finds) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, KindGauge, labels, nil)}
}

// Histogram registers (or finds) a histogram family with the given
// finite upper bounds (DefBuckets when empty).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, KindHistogram, labels, buckets)}
}

// CounterFunc registers a callback-backed counter with no labels; fn is
// evaluated at snapshot time only.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, KindCounter, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// GaugeFunc registers a callback-backed gauge with no labels; fn is
// evaluated at snapshot time only.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, KindGauge, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// seriesKey joins label values into the series map key.
func seriesKey(values []string) string { return strings.Join(values, "\x00") }

// with resolves (creating on first use) the series for values.
func (f *family) with(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok := f.series[key]; ok {
		return ch
	}
	ch := &child{values: append([]string(nil), values...)}
	switch f.kind {
	case KindCounter:
		ch.c = &Counter{}
	case KindGauge:
		ch.g = &Gauge{}
	case KindHistogram:
		ch.h = &Histogram{
			upper:  f.buckets,
			counts: make([]atomic.Int64, len(f.buckets)),
		}
	}
	f.series[key] = ch
	return ch
}

// With resolves the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter { return v.f.with(values).c }

// With resolves the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.with(values).g }

// With resolves the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.with(values).h }

// LabelPair is one label name/value of a series.
type LabelPair struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// BucketSnapshot is one finite histogram bucket (cumulative counts and
// the implicit +Inf bucket are derived from Count).
type BucketSnapshot struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// SeriesSnapshot is one series' frozen state.
type SeriesSnapshot struct {
	Labels  []LabelPair      `json:"labels,omitempty"`
	Value   float64          `json:"value"`
	Count   int64            `json:"count,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// MetricSnapshot is one family's frozen state.
type MetricSnapshot struct {
	Name   string           `json:"name"`
	Type   string           `json:"type"`
	Help   string           `json:"help,omitempty"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot is the whole registry frozen at one instant.
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// Snapshot freezes the registry: families sorted by name, series sorted
// by label values, callback-backed families evaluated now. The result
// shares nothing with the registry, so tests can compare snapshots
// while instrumentation keeps running.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var snap Snapshot
	for _, f := range fams {
		ms := MetricSnapshot{Name: f.name, Type: string(f.kind), Help: f.help}
		f.mu.Lock()
		if f.fn != nil {
			ms.Series = append(ms.Series, SeriesSnapshot{Value: f.fn()})
		}
		children := make([]*child, 0, len(f.series))
		for _, ch := range f.series {
			children = append(children, ch)
		}
		f.mu.Unlock()
		sort.Slice(children, func(i, j int) bool {
			return seriesKey(children[i].values) < seriesKey(children[j].values)
		})
		for _, ch := range children {
			ss := SeriesSnapshot{}
			for i, l := range f.labels {
				ss.Labels = append(ss.Labels, LabelPair{Name: l, Value: ch.values[i]})
			}
			switch f.kind {
			case KindCounter:
				ss.Value = float64(ch.c.Value())
			case KindGauge:
				ss.Value = ch.g.Value()
			case KindHistogram:
				ss.Count = ch.h.count.Load()
				ss.Sum = math.Float64frombits(ch.h.sumBits.Load())
				cum := int64(0)
				for i, ub := range ch.h.upper {
					cum += ch.h.counts[i].Load()
					ss.Buckets = append(ss.Buckets, BucketSnapshot{UpperBound: ub, Count: cum})
				}
			}
			ms.Series = append(ms.Series, ss)
		}
		snap.Metrics = append(snap.Metrics, ms)
	}
	return snap
}

// Get returns the snapshot value of the series of metric name whose
// label values match exactly, and whether it exists. Histograms report
// their Sum. A test convenience over Snapshot.
func (s Snapshot) Get(name string, labelValues ...string) (float64, bool) {
	for _, m := range s.Metrics {
		if m.Name != name {
			continue
		}
		for _, se := range m.Series {
			if len(se.Labels) != len(labelValues) {
				continue
			}
			match := true
			for i := range se.Labels {
				if se.Labels[i].Value != labelValues[i] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			if m.Type == string(KindHistogram) {
				return se.Sum, true
			}
			return se.Value, true
		}
	}
	return 0, false
}
