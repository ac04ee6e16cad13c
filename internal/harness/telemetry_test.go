package harness

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"specrecon/internal/ccache"
	"specrecon/internal/telemetry"
	"specrecon/internal/workloads"
)

// TestTelemetrySmoke is the end-to-end fleet-telemetry path: install a
// registry and a compile cache, run a small grid workload sweep with
// occupancy collection, then write the JSON snapshot and check that it
// parses and that the ccache, worker-pool and per-SM occupancy/stall
// series all surface in it.
func TestTelemetrySmoke(t *testing.T) {
	reg := telemetry.New()
	cache := ccache.New(0)
	cache.RegisterMetrics(reg)
	prevCache := UseCompileCache(cache)
	prevReg := UseTelemetry(reg)
	t.Cleanup(func() {
		UseCompileCache(prevCache)
		UseTelemetry(prevReg)
	})

	cfg := workloads.BuildConfig{Tasks: 4}
	// Twice: the second sweep's compiles replay the first through the
	// cache, so the hit counter moves.
	for i := 0; i < 2; i++ {
		if _, err := Figure7(cfg, 2); err != nil {
			t.Fatalf("Figure7: %v", err)
		}
	}
	occs, err := CollectOccupancy(cfg, 0, 2)
	if err != nil {
		t.Fatalf("CollectOccupancy: %v", err)
	}
	if len(occs) == 0 {
		t.Fatal("no workloads sampled")
	}
	sampled := 0
	for _, wo := range occs {
		sampled += wo.Rec.Len()
	}
	if sampled == 0 {
		t.Fatal("occupancy collection recorded no samples")
	}

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("JSON snapshot does not parse: %v", err)
	}
	series := map[string][]telemetry.SeriesSnapshot{}
	for _, m := range snap.Metrics {
		series[m.Name] = m.Series
	}
	for _, name := range []string{
		"ccache_hits_total",
		"ccache_misses_total",
		"harness_pool_tasks_total",
		"harness_pool_driver_seconds",
		"simt_sm_issue_efficiency",
		"simt_sm_stall_barrier_frac",
		"simt_sm_avg_resident",
	} {
		if len(series[name]) == 0 {
			t.Errorf("snapshot missing %s", name)
		}
	}
	for _, driver := range []string{"figure7", "occupancy"} {
		if _, ok := snap.Get("harness_pool_tasks_total", driver); !ok {
			t.Errorf("harness_pool_tasks_total has no driver=%q series:\n%s", driver, buf.String())
		}
	}

	// The compile cache must have seen real traffic through the sweep.
	if s := cache.Stats(); s.Hits == 0 || s.Misses == 0 {
		t.Errorf("cache saw no traffic: %+v", s)
	}
}

// TestReportDeterministicWithTelemetry pins that observing a sweep does
// not perturb it: Figure7 rows are byte-identical with and without a
// registry installed, at any worker count.
func TestReportDeterministicWithTelemetry(t *testing.T) {
	cfg := workloads.BuildConfig{Tasks: 4}
	bare, err := Figure7(cfg, 1)
	if err != nil {
		t.Fatalf("bare: %v", err)
	}
	prev := UseTelemetry(telemetry.New())
	t.Cleanup(func() { UseTelemetry(prev) })
	observed, err := Figure7(cfg, 4)
	if err != nil {
		t.Fatalf("observed: %v", err)
	}
	stripCompileTimes(bare)
	stripCompileTimes(observed)
	if !reflect.DeepEqual(bare, observed) {
		t.Fatalf("telemetry perturbed Figure7 rows:\nbare:     %+v\nobserved: %+v", bare, observed)
	}
}

// TestOccupancySection renders the report section over a real
// collection and checks workload headers and the summary table.
func TestOccupancySection(t *testing.T) {
	occs, err := CollectOccupancy(workloads.BuildConfig{Tasks: 4}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteOccupancySection(&buf, occs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "## SM occupancy and stall attribution") {
		t.Error("missing section header")
	}
	for _, wo := range occs {
		if !strings.Contains(out, "### "+wo.Name) {
			t.Errorf("missing workload header %q", wo.Name)
		}
	}
	if !strings.Contains(out, "| sm | samples | avg resident |") {
		t.Error("missing per-SM summary table")
	}
}
