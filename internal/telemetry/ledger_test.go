package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLedgerAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	recs := []RunRecord{
		{Time: "2026-08-08T00:00:00Z", Tool: "figures", GitRev: "abc123", Config: "cfg1",
			Metrics: map[string]float64{"wall_seconds": 1.5, "ccache_hits_total": 40}},
		{Time: "2026-08-08T01:00:00Z", Tool: "figures", GitRev: "def456", Config: "cfg1",
			Note:    "after refactor",
			Metrics: map[string]float64{"wall_seconds": 1.2, "ccache_hits_total": 41}},
	}
	for _, rec := range recs {
		if err := AppendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d records, want 2", len(got))
	}
	if got[0].Tool != "figures" || got[0].Metrics["wall_seconds"] != 1.5 {
		t.Fatalf("first record mangled: %+v", got[0])
	}
	if got[1].Note != "after refactor" || got[1].GitRev != "def456" {
		t.Fatalf("second record mangled: %+v", got[1])
	}
}

func TestLedgerMalformedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	content := `{"tool":"a","metrics":{}}` + "\n\nnot json\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadLedger(path)
	if err == nil || !strings.Contains(err.Error(), ":3:") {
		t.Fatalf("want error naming line 3, got %v", err)
	}
}

func TestFingerprintStable(t *testing.T) {
	type cfg struct{ Threads, Grid int }
	a := Fingerprint(cfg{64, 8})
	b := Fingerprint(cfg{64, 8})
	c := Fingerprint(cfg{64, 9})
	if a != b {
		t.Fatalf("fingerprint unstable: %s vs %s", a, b)
	}
	if a == c {
		t.Fatalf("fingerprint ignores config changes")
	}
	if len(a) != 12 {
		t.Fatalf("fingerprint length %d, want 12", len(a))
	}
}
