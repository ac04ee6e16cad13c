package harness

import (
	"bytes"
	"strings"
	"testing"

	"specrecon/internal/workloads"
)

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
