package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"specrecon/internal/analyze"
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

// viewMismatch is the error-view probe's finding.
type viewMismatch struct{ msg string }

func (e *viewMismatch) Error() string { return e.msg }

// TestErrorViewIsTheReportsErrors holds barrier-safety's error view to
// the analyzer's full report over the record's kernels and options:
//   - through every default pipeline shape, a probe in the verifier's
//     slot finds Facts.Errors equal to the full report's errors, element
//     for element, with barrier provenance and without;
//   - a verifying or repairing CompilePipeline is rejected with the text
//     the full report gives, and otherwise keeps that report's errors
//     and no efficiency estimate.
//
// Every error code shows up in the view, so dropping one check from the
// error layer fails the test even though the full report drops it too.
func TestErrorViewIsTheReportsErrors(t *testing.T) {
	seen := map[analyze.Code]int{}
	probe := pass{name: "view", spec: "view", effect: ReadsOnly, run: func(c *PassContext) error {
		for _, classOf := range []func(int) analyze.BarrierClass{nil, c.barrierClassOf()} {
			opts := analyze.Options{ClassOf: classOf}
			view, want := c.facts.Errors(opts), analyze.Filter(c.facts.Analyze(opts).Diags, analyze.SeverityError)
			if !reflect.DeepEqual(view, want) {
				return &viewMismatch{fmt.Sprintf("with provenance %v: error view %v, want %v", classOf != nil, view, want)}
			}
			for _, d := range view {
				seen[d.Code]++
			}
		}
		return nil
	}}
	// probed puts the probe in front of the verifier, or of allocation
	// where no verifier runs.
	probed := func(p *Pipeline) *Pipeline {
		at := len(p.passes)
		for i, ps := range p.passes {
			if ps.name == "barrier-safety" || ps.name == "alloc" {
				at = i
				break
			}
		}
		return newPipeline(append(append(append([]pass(nil), p.passes[:at]...), probe), p.passes[at:]...))
	}

	for _, k := range recordKernels() {
		for _, opts := range k.variants {
			for _, p := range everyDefaultPipeline(opts) {
				var vm *viewMismatch
				if _, err := CompilePipeline(k.mod, opts, probed(p)); errors.As(err, &vm) {
					t.Fatalf("%s under %q: %v", k.name, p.Spec(), vm)
				}
			}
			for _, p := range []*Pipeline{SafePipelineFor(opts), RepairPipelineFor(opts)} {
				view, verr := CompilePipeline(k.mod, opts, p)
				full, ferr := compilePipeline(k.mod, opts, p, true)
				if fmt.Sprint(verr) != fmt.Sprint(ferr) {
					t.Fatalf("%s under %q: rejected with %v, the full report with %v", k.name, p.Spec(), verr, ferr)
				}
				if verr != nil {
					continue
				}
				if want := analyze.Filter(full.Diagnostics, analyze.SeverityError); !reflect.DeepEqual(view.Diagnostics, want) {
					t.Fatalf("%s under %q: Diagnostics %v, want the full report's errors %v", k.name, p.Spec(), view.Diagnostics, want)
				}
				if view.StaticEff != nil || full.StaticEff == nil {
					t.Fatalf("%s under %q: StaticEff %v, full report's %v; want nil and set", k.name, p.Spec(), view.StaticEff, full.StaticEff)
				}
			}
		}
	}
	t.Logf("error codes in the view: %v", seen)
	for _, code := range []analyze.Code{analyze.CodeWaitNeverJoined, analyze.CodeJoinedAtExit, analyze.CodeLostWait, analyze.CodeLostRejoin, analyze.CodeResidualConflict} {
		if seen[code] == 0 {
			t.Errorf("no error view holds %s: its check is not in the error layer", code)
		}
	}

	rs, err := workloads.Get("rsbench")
	if err != nil {
		t.Fatal(err)
	}
	opts := SpecReconOptions()
	opts.Faults = FaultPlan{DropWait: 1}
	_, err = CompilePipeline(rs.Build(workloads.BuildConfig{}).Module, opts, SafePipelineFor(opts))
	const want = `core: pass "barrier-safety": barrier safety: 1 violation(s): SR1003: rsbench_lookup_kernel.inner_body: spec barrier b1 is joined but never waited (lost WaitBarrier; joined at rsbench_lookup_kernel.inner_body)`
	if fmt.Sprint(err) != want {
		t.Errorf("rsbench under drop-wait@1: %v\nwant %s", err, want)
	}
}

// TestEveryResidualConflictHasAWitness: over the record corpus, every
// SR1005 the analyzer reports names the wait that witnesses it and
// carries the edit that repairs it; an overlap without a witness is the
// SR3004 note. The fault plans that skip a conflict or drop a cancel
// must still reach SR1005.
func TestEveryResidualConflictHasAWitness(t *testing.T) {
	seen := map[analyze.Code]int{}
	for _, k := range recordKernels() {
		for _, opts := range k.variants {
			c, err := Diagnose(k.mod, opts)
			if err != nil {
				continue // a fault plan with no target in this kernel
			}
			for _, d := range c.Diagnostics {
				seen[d.Code]++
				if d.Code == analyze.CodeResidualConflict && (d.Block == "" || len(d.Edits) == 0) {
					t.Errorf("%s under %+v: SR1005 without a witness: %v", k.name, opts.Faults, d)
				}
			}
		}
	}
	t.Logf("SR1005 %d, SR3004 %d", seen[analyze.CodeResidualConflict], seen[analyze.CodeUnwitnessedConflict])
	if seen[analyze.CodeResidualConflict] == 0 {
		t.Error("no SR1005 in the record corpus: the check is not exercised")
	}
}
