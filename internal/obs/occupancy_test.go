package obs_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specrecon/internal/ir"
	"specrecon/internal/obs"
	"specrecon/internal/simt"
)

// sampleGrid runs gridKernel with the occupancy recorder attached and
// returns the recorder.
func sampleGrid(t *testing.T, stride int64) *obs.OccupancyRecorder {
	t.Helper()
	m := asm(t, gridKernel)
	rec := obs.NewOccupancyRecorder()
	cfg := simt.Config{
		Grid: 8, CTASize: 2 * ir.WarpWidth, SMs: 4, Workers: 2, Seed: 5,
		SampleStride: stride, Samples: rec,
	}
	if _, err := simt.Run(m, cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rec
}

// TestOccupancyStatsAggregation checks the fixed-field aggregate
// against a hand-computed fold of the same sample stream, plus the
// derived ratios' ranges.
func TestOccupancyStatsAggregation(t *testing.T) {
	rec := sampleGrid(t, 8)
	var samples []simt.Sample
	rec.Each(func(s *simt.Sample) { samples = append(samples, *s) })
	if len(samples) == 0 {
		t.Fatal("no samples recorded")
	}
	var want obs.OccupancyStats
	for _, s := range samples {
		want.Sample(s)
	}
	got := rec.Stats()
	if got != want {
		t.Fatalf("Stats() = %+v, want %+v", got, want)
	}
	if got.Samples != int64(len(samples)) {
		t.Errorf("Samples = %d, want %d", got.Samples, len(samples))
	}
	if eff := got.IssueEfficiency(); eff <= 0 || eff > 1 {
		t.Errorf("IssueEfficiency = %v, want (0,1]", eff)
	}
	if got.AvgResident() < got.AvgEligible() {
		t.Errorf("avg resident %v < avg eligible %v", got.AvgResident(), got.AvgEligible())
	}

	// Merge of per-SM aggregates reproduces the whole-stream aggregate.
	var merged obs.OccupancyStats
	for _, per := range rec.PerSM() {
		p := per
		merged.Merge(&p)
	}
	if merged != want {
		t.Errorf("merged per-SM stats = %+v, want %+v", merged, want)
	}
}

// TestOccupancyPerSM: samples land in their own SM's bucket and every
// SM with work contributes.
func TestOccupancyPerSM(t *testing.T) {
	rec := sampleGrid(t, 8)
	per := rec.PerSM()
	if len(per) != 4 {
		t.Fatalf("PerSM length = %d, want 4", len(per))
	}
	var total int64
	for sm, o := range per {
		if o.Samples == 0 {
			t.Errorf("sm %d aggregated no samples", sm)
		}
		total += o.Samples
	}
	if total != int64(rec.Len()) {
		t.Errorf("per-SM sample total %d != recorded %d", total, rec.Len())
	}
}

// TestOccupancyMarkdown holds the timeline section of the 4-SM grid —
// the summary table, one row and one strip per SM — to its golden, which
// the renderer that walked the samples once per SM strip wrote
// (regenerate with -update after an intentional format change), and
// checks the empty-recorder fallback.
func TestOccupancyMarkdown(t *testing.T) {
	rec := sampleGrid(t, 8)
	var buf bytes.Buffer
	if err := rec.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "occupancy_golden.md")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("occupancy markdown differs from %s (rerun with -update if intentional)\ngot:\n%s", golden, buf.Bytes())
	}

	buf.Reset()
	if err := obs.NewOccupancyRecorder().WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no occupancy samples") {
		t.Errorf("empty recorder fallback missing: %q", buf.String())
	}
}

// TestTraceOccupancyCounters: samples fed to the trace recorder render
// as per-SM Perfetto counter tracks, and a recorder without samples
// emits none (pinning the flat goldens).
func TestTraceOccupancyCounters(t *testing.T) {
	m := asm(t, gridKernel)
	rec := obs.NewTraceRecorder()
	cfg := simt.Config{
		Grid: 8, CTASize: 2 * ir.WarpWidth, SMs: 2, Seed: 5,
		SampleStride: 8, Events: rec,
		Samples: simt.SampleSinkFunc(rec.Sample),
	}
	if _, err := simt.Run(m, cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		Events []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Args json.RawMessage `json:"args,omitempty"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	occ, mem := map[int]int{}, map[int]int{}
	for _, ev := range trace.Events {
		if ev.Ph != "C" {
			continue
		}
		switch ev.Name {
		case "sm occupancy":
			occ[ev.Pid]++
			var args map[string]int64
			if err := json.Unmarshal(ev.Args, &args); err != nil {
				t.Fatalf("counter args: %v", err)
			}
			for _, k := range []string{"issued", "eligible idle", "stall barrier", "stall ctabar", "stall other"} {
				if v, ok := args[k]; !ok {
					t.Fatalf("counter missing series %q: %s", k, ev.Args)
				} else if v < 0 {
					t.Fatalf("negative counter %q = %d", k, v)
				}
			}
		case "sm mem stall":
			mem[ev.Pid]++
		}
	}
	for sm := 0; sm < 2; sm++ {
		if occ[sm] == 0 || mem[sm] == 0 {
			t.Errorf("sm %d: occupancy counters %d, mem-stall counters %d; want both > 0",
				sm, occ[sm], mem[sm])
		}
	}

	// Without samples the exporter emits no counter events at all.
	plain := recordTrace(t)
	if bytes.Contains(plain, []byte(`"ph":"C"`)) {
		t.Error("sample-free trace contains counter events")
	}
}
