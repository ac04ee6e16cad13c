package telemetry

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	c := r.Counter("tasks_total", "tasks run", "driver").With("fig7")
	c.Add(3)
	c.Inc()
	c.Add(-5) // ignored: counters never run backwards
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}

	g := r.Gauge("queue_depth", "queued jobs").With()
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}

	h := r.Histogram("wall_seconds", "wall time", []float64{1, 10}).With()
	for _, v := range []float64{0.5, 0.5, 5, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	var hs *SeriesSnapshot
	for i, m := range snap.Metrics {
		if m.Name == "wall_seconds" {
			hs = &snap.Metrics[i].Series[0]
		}
	}
	if hs == nil {
		t.Fatal("wall_seconds missing from snapshot")
	}
	if hs.Count != 4 || hs.Sum != 106 {
		t.Fatalf("histogram count=%d sum=%v, want 4/106", hs.Count, hs.Sum)
	}
	// Cumulative finite buckets: le=1 -> 2, le=10 -> 3 (+Inf implied by Count).
	if hs.Buckets[0].Count != 2 || hs.Buckets[1].Count != 3 {
		t.Fatalf("cumulative buckets = %+v, want 2,3", hs.Buckets)
	}
}

func TestRegistrationIdempotentAndConflicts(t *testing.T) {
	r := New()
	a := r.Counter("hits_total", "h", "kind")
	b := r.Counter("hits_total", "h", "kind")
	a.With("x").Add(2)
	b.With("x").Add(3)
	if got := a.With("x").Value(); got != 5 {
		t.Fatalf("re-registered family not shared: %d", got)
	}
	mustPanic(t, func() { r.Gauge("hits_total", "h", "kind") })
	mustPanic(t, func() { r.Counter("hits_total", "h", "other") })
	mustPanic(t, func() { r.Counter("bad name", "h") })
	mustPanic(t, func() { a.With("x", "extra") })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	build := func(order []string) Snapshot {
		r := New()
		for _, sm := range order {
			r.Gauge("sm_occupancy", "per-SM occupancy", "sm").With(sm).Set(1)
		}
		r.Counter("a_total", "a").With().Inc()
		return r.Snapshot()
	}
	s1, s2 := build([]string{"2", "0", "1"}), build([]string{"1", "2", "0"})
	b1, _ := json.Marshal(s1)
	b2, _ := json.Marshal(s2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("snapshot order depends on insertion order:\n%s\n%s", b1, b2)
	}
	if s1.Metrics[0].Name != "a_total" {
		t.Fatalf("families not sorted: %q first", s1.Metrics[0].Name)
	}
}

func TestFuncMetricsEvaluatedAtSnapshot(t *testing.T) {
	r := New()
	calls := 0
	r.GaugeFunc("cache_bytes", "bytes held", func() float64 { calls++; return 42 })
	r.CounterFunc("cache_hits_total", "hits", func() float64 { return 7 })
	if calls != 0 {
		t.Fatalf("callback ran at registration: %d", calls)
	}
	snap := r.Snapshot()
	if calls != 1 {
		t.Fatalf("callback calls = %d, want 1", calls)
	}
	if v, ok := snap.Get("cache_bytes"); !ok || v != 42 {
		t.Fatalf("cache_bytes = %v,%v", v, ok)
	}
	if v, ok := snap.Get("cache_hits_total"); !ok || v != 7 {
		t.Fatalf("cache_hits_total = %v,%v", v, ok)
	}
}

func TestWriteJSONWellFormed(t *testing.T) {
	r := New()
	r.Counter("x_total", "x").With().Inc()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("JSON snapshot does not round-trip: %v", err)
	}
	if v, ok := snap.Get("x_total"); !ok || v != 1 {
		t.Fatalf("round-tripped x_total = %v,%v", v, ok)
	}
}

func TestConcurrentHotPath(t *testing.T) {
	r := New()
	c := r.Counter("n_total", "n").With()
	g := r.Gauge("depth", "d").With()
	h := r.Histogram("lat", "l", []float64{10, 100}).With()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 200))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge = %v, want 8000", g.Value())
	}
	snap := r.Snapshot()
	for _, m := range snap.Metrics {
		if m.Name == "lat" && m.Series[0].Count != 8000 {
			t.Fatalf("histogram count = %d, want 8000", m.Series[0].Count)
		}
	}
}

func TestHandleHotPathAllocFree(t *testing.T) {
	r := New()
	c := r.Counter("n_total", "n", "k").With("v")
	g := r.Gauge("d", "d").With()
	if avg := testing.AllocsPerRun(1000, func() { c.Inc(); g.Add(1) }); avg != 0 {
		t.Fatalf("resolved-handle hot path allocates %v/op, want 0", avg)
	}
}
