package analyze_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"specrecon/internal/analyze"
	"specrecon/internal/ir"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden SARIF fixture")

// goldenDiags is a fixed diagnostic set covering every severity tier, a
// fix-it, a machine edit (rendered as SARIF artifactChanges), an
// instruction anchor, and a diagnostic with no block — the shapes the
// SARIF emitter has to place differently.
func goldenDiags() []analyze.Diagnostic {
	return []analyze.Diagnostic{
		{
			Code: analyze.CodeWaitNeverJoined, Severity: analyze.SeverityError,
			Fn: "listing1", Msg: "b2 is waited on but never joined (lost JoinBarrier)",
		},
		{
			Code: analyze.CodeJoinedAtExit, Severity: analyze.SeverityError,
			Fn: "kernel", Block: "done", Instr: 3,
			Msg: "spec barrier b0 may still be joined when threads exit (missing release on this path)",
			Fix: "insert CancelBarrier b0 before the exit",
			Edits: []analyze.Edit{
				{Kind: analyze.EditInsert, Fn: "kernel", Block: "done", Index: 2, Op: ir.OpCancel, Bar: 0},
			},
		},
		{
			Code: analyze.CodeUninitializedRead, Severity: analyze.SeverityWarning,
			Fn: "kernel", Block: "entry", Instr: 1,
			Msg: "registers possibly read before written: [r4]",
		},
		{
			Code: analyze.CodeLowEfficiency, Severity: analyze.SeverityNote,
			Fn:  "kernel",
			Msg: "static SIMT efficiency 31.2% is below the 80.0% screening threshold",
		},
	}
}

// TestWriteSARIFGolden pins the emitter's exact output against the
// committed fixture (testdata/diagnostics.sarif), which `make
// vet-corpus` also feeds through `perf json`. Regenerate with
// `go test ./internal/analyze -run SARIF -update`.
func TestWriteSARIFGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := analyze.WriteSARIF(&buf, "sasmvet", goldenDiags()); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("emitted SARIF is not valid JSON")
	}

	golden := filepath.Join("testdata", "diagnostics.sarif")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("SARIF output differs from %s; run with -update and review the diff.\ngot:\n%s", golden, buf.String())
	}
}

// TestWriteSARIFShape decodes the emitted log generically and checks
// the structural invariants a SARIF consumer relies on: schema and
// version, one run, a rule for every distinct code, one result per
// diagnostic with a level matching its severity.
func TestWriteSARIFShape(t *testing.T) {
	diags := goldenDiags()
	var buf bytes.Buffer
	if err := analyze.WriteSARIF(&buf, "sasmvet", diags); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
				Level  string `json:"level"`
				Fixes  []struct {
					ArtifactChanges []struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Replacements []struct {
							DeletedRegion struct {
								StartLine int `json:"startLine"`
							} `json:"deletedRegion"`
							InsertedContent *struct {
								Text string `json:"text"`
							} `json:"insertedContent"`
						} `json:"replacements"`
					} `json:"artifactChanges"`
				} `json:"fixes"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatal(err)
	}
	if log.Version != "2.1.0" || log.Schema == "" {
		t.Errorf("version %q schema %q, want SARIF 2.1.0 with schema", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "sasmvet" {
		t.Errorf("driver name %q, want sasmvet", run.Tool.Driver.Name)
	}
	if len(run.Results) != len(diags) {
		t.Fatalf("got %d results, want %d", len(run.Results), len(diags))
	}
	ruleIDs := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	wantLevel := map[analyze.Severity]string{
		analyze.SeverityError:   "error",
		analyze.SeverityWarning: "warning",
		analyze.SeverityNote:    "note",
	}
	for i, r := range run.Results {
		if !ruleIDs[r.RuleID] {
			t.Errorf("result %d rule %s has no rules entry", i, r.RuleID)
		}
		if r.RuleID != string(diags[i].Code) {
			t.Errorf("result %d rule %s, want %s (input order preserved)", i, r.RuleID, diags[i].Code)
		}
		if r.Level != wantLevel[diags[i].Severity] {
			t.Errorf("result %d level %s, want %s", i, r.Level, wantLevel[diags[i].Severity])
		}
		// A diagnostic carrying machine edits must render them as a fix
		// with artifactChanges; one without edits must not invent any.
		wantChanges := len(diags[i].Edits)
		gotChanges := 0
		for _, f := range r.Fixes {
			gotChanges += len(f.ArtifactChanges)
		}
		if gotChanges != wantChanges {
			t.Errorf("result %d: %d artifactChanges, want %d", i, gotChanges, wantChanges)
		}
		for _, f := range r.Fixes {
			for _, ac := range f.ArtifactChanges {
				if ac.ArtifactLocation.URI == "" {
					t.Errorf("result %d: artifactChange without a URI", i)
				}
				for _, rp := range ac.Replacements {
					if rp.DeletedRegion.StartLine < 1 {
						t.Errorf("result %d: replacement startLine %d, want >= 1", i, rp.DeletedRegion.StartLine)
					}
				}
			}
		}
	}
}
