package core

import (
	"errors"
	"strings"
	"testing"

	"specrecon/internal/workloads"
)

// compileSafely compiles with the verifier in the pipeline and fails the
// test on any error, returning the compilation.
func mustCompileSafe(t *testing.T, opts Options) *SafeCompilation {
	t.Helper()
	m := buildListing1(16, 2)
	sc, err := CompileSafe(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestVerifierAcceptsCleanBuilds(t *testing.T) {
	for _, opts := range []Options{BaselineOptions(), SpecReconOptions()} {
		sc := mustCompileSafe(t, opts)
		if sc.FellBack {
			t.Fatalf("clean build under %+v fell back: %v", opts, sc.FallbackErr)
		}
		if !strings.Contains(sc.Pipeline, "barrier-safety") {
			t.Errorf("pipeline %q should include the verifier", sc.Pipeline)
		}
	}
}

func TestVerifierAcceptsAllWorkloads(t *testing.T) {
	// The verifier must not false-positive on any real benchmark: a
	// spurious fallback would silently change every figure.
	for _, w := range workloads.All() {
		inst := w.Build(workloads.BuildConfig{})
		for _, opts := range []Options{BaselineOptions(), SpecReconOptions()} {
			sc, err := CompileSafe(inst.Module, opts)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if sc.FellBack {
				t.Errorf("%s: clean workload fell back: %v", w.Name, sc.FallbackErr)
			}
		}
	}
}

// TestVerifierCatchesFaults enumerates the statically-detectable half of
// the injection matrix: each fault must produce a SafetyError (or an
// inject-layer compile error), never a silently-accepted module.
func TestVerifierCatchesFaults(t *testing.T) {
	cases := []struct {
		fault string
		want  string // substring of the violation
	}{
		{"drop-cancel@1", "residual live-range conflict"},
		{"drop-wait@1", "never waited"},
		{"drop-join@1", "never joined"},
		{"drop-rejoin@1", "without an immediate rejoin"},
		{"skip-conflict@1", "residual live-range conflict"},
	}
	for _, tc := range cases {
		t.Run(tc.fault, func(t *testing.T) {
			m := buildListing1(16, 2)
			opts := SpecReconOptions()
			var err error
			opts.Faults, err = ParseFaultPlan(tc.fault)
			if err != nil {
				t.Fatal(err)
			}
			_, cerr := CompilePipeline(m, opts, SafePipelineFor(opts))
			if cerr == nil {
				t.Fatalf("fault %s compiled clean through the verifier", tc.fault)
			}
			var se *SafetyError
			if !errors.As(cerr, &se) {
				t.Fatalf("fault %s: want SafetyError, got %v", tc.fault, cerr)
			}
			if !strings.Contains(se.Error(), tc.want) {
				t.Errorf("fault %s: violation %q does not mention %q", tc.fault, se.Error(), tc.want)
			}
		})
	}
}

// TestCompileSafeRepairsFault: a verifier-rejected build whose
// diagnostics carry machine edits is repaired and re-verified instead
// of falling back — the repaired speculative build is measured, with
// the rejection and the fixpoint report recorded.
func TestCompileSafeRepairsFault(t *testing.T) {
	opts := SpecReconOptions()
	opts.Faults = FaultPlan{SkipConflict: 1}
	sc := mustCompileSafe(t, opts)
	if sc.FellBack {
		t.Fatalf("repairable fault should be repaired, not fall back: %v", sc.FallbackErr)
	}
	if sc.Repaired == nil {
		t.Fatal("repairable fault should record the repair")
	}
	var se *SafetyError
	if !errors.As(sc.Repaired.Reject, &se) {
		t.Fatalf("Repaired.Reject should be the SafetyError, got %v", sc.Repaired.Reject)
	}
	rep := sc.Repaired.Report
	if rep == nil || !rep.Clean() || len(rep.Edits) == 0 {
		t.Fatalf("repair report should be clean with edits applied, got %+v", rep)
	}
	// The repaired build keeps its speculative barriers.
	hasSpec := false
	for _, b := range sc.Barriers {
		if b.Kind == KindSpec {
			hasSpec = true
		}
	}
	if !hasSpec {
		t.Error("repaired build lost its speculative barriers")
	}
	found := false
	for _, r := range sc.Remarks {
		if r.Pass == "repair" {
			found = true
		}
	}
	if !found {
		t.Error("repair should be recorded as repair-pass remarks")
	}
}

// TestCompileSafeFallsBackWithRemark: a fault whose diagnostic carries
// no machine edit (drop-wait -> SR1003, unrepairable by design) still
// falls back to the PDOM baseline with the failsafe remark.
func TestCompileSafeFallsBackWithRemark(t *testing.T) {
	opts := SpecReconOptions()
	opts.Faults = FaultPlan{DropWait: 1}
	sc := mustCompileSafe(t, opts)
	if !sc.FellBack {
		t.Fatal("faulted build should fall back")
	}
	if sc.Repaired != nil {
		t.Fatal("unrepairable fault should not report a repair")
	}
	var se *SafetyError
	if !errors.As(sc.FallbackErr, &se) {
		t.Fatalf("FallbackErr should be a SafetyError, got %v", sc.FallbackErr)
	}
	// The fallback is the baseline: no speculative barriers, no faults.
	for _, b := range sc.Barriers {
		if b.Kind == KindSpec || b.Kind == KindExit || b.Kind == KindSpecCall {
			t.Errorf("fallback module still has %s barrier b%d", b.Kind, b.ID)
		}
	}
	found := false
	for _, r := range sc.Remarks {
		if r.Pass == "failsafe" && strings.Contains(r.Msg, "fell back to PDOM baseline") {
			found = true
		}
	}
	if !found {
		t.Error("fallback should be recorded as a failsafe remark")
	}
}

func TestCompileSafeBrokenInputStillErrors(t *testing.T) {
	m := buildListing1(16, 2)
	m.Funcs[0].Blocks[0].Instrs = nil // no terminator: invalid either way
	if _, err := CompileSafe(m, SpecReconOptions()); err == nil {
		t.Fatal("unusable input should not be silently 'fixed' by fallback")
	}
}
