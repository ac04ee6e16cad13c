package specrecon

import (
	"errors"

	"testing"

	"specrecon/internal/analyze"
	"specrecon/internal/core"
	"specrecon/internal/diffcheck"
	"specrecon/internal/ir"
	"specrecon/internal/repair"
)

// Seed corpora live in testdata/fuzz/<FuzzName>/; the inline seeds below
// cover the same shapes so `go test` exercises them even without the
// files. `make fuzz-smoke` runs each target for a short wall-clock
// budget.

const fuzzSeedMinimal = "module m memwords=8\nfunc @k nregs=1 nfregs=0 {\ne:\n  exit\n}\n"

const fuzzSeedLoop = `module loop memwords=64
func @k nregs=4 nfregs=2 {
e:
  tid r0
  const r1, #0
  br h
h:
  setlt r2, r1, #6
  cbr r2, body, done
body:
  itof f0, r1
  fadd f1, f1, f0
  add r1, r1, #1
  br h
done:
  fst [r0], f1
  exit
}
`

const fuzzSeedBarriers = `module bar memwords=64
func @k nregs=3 nfregs=0 {
e:
  tid r0
  join b0
  and r1, r0, #1
  cbr r1, hot, cold
hot:
  wait b0
  br out
cold:
  cancel b0
  br out
out:
  st [r0], r1
  exit
}
`

const fuzzSeedPredict = `module pred memwords=128
func @k nregs=4 nfregs=2 {
e:
  tid r0
  const r1, #0
  .predict exp threshold=28
  br h
h:
  setlt r2, r1, #8
  cbr r2, body, done
body:
  frand f0
  fsetlt r3, f0, #0.25
  cbr r3, exp, tail
exp:
  fmul f1, f1, f1
  fsqrt f1, f1
  br tail
tail:
  add r1, r1, #1
  br h
done:
  fst [r0], f1
  exit
}
`

// FuzzParse hammers the textual IR parser: it must never panic, and any
// module it accepts must survive a Print/Parse round trip with a stable
// rendering (the property the hand-written round-trip tests check on
// curated inputs).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{fuzzSeedMinimal, fuzzSeedLoop, fuzzSeedBarriers, fuzzSeedPredict, "module", "func @k {", ";"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ir.Parse(src)
		if err != nil {
			return
		}
		out := ir.Print(m)
		m2, err := ir.Parse(out)
		if err != nil {
			t.Fatalf("accepted module does not re-parse: %v\n%s", err, out)
		}
		if out2 := ir.Print(m2); out2 != out {
			t.Fatalf("printing is not stable:\n--- first\n%s\n--- second\n%s", out, out2)
		}
	})
}

// FuzzAnalyze hammers the static analyzer: Analyze must never panic on
// any module the parser accepts, and its verdict must agree with the
// barrier-safety verifier in one direction — on a raw (unclassed)
// module, the analyzer's error set is exactly the verifier's
// provenance-free checks, so "analyzer clean" must imply "verifier
// accepts" and vice versa. (The full pipeline may still reject for
// non-barrier reasons; only barrier-safety verdicts are compared.)
func FuzzAnalyze(f *testing.F) {
	for _, seed := range []string{fuzzSeedMinimal, fuzzSeedLoop, fuzzSeedBarriers, fuzzSeedPredict} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ir.Parse(src)
		if err != nil {
			return
		}
		for _, fn := range m.Funcs {
			if fn.NRegs > 256 || fn.NFRegs > 256 || len(fn.Blocks) > 256 {
				return
			}
		}
		rep := analyze.Analyze(m, analyze.Options{EffNoteBelow: 1})
		for _, d := range rep.Diags {
			if d.Code == "" || d.Msg == "" {
				t.Fatalf("diagnostic with empty code or message: %+v", d)
			}
		}
		for fn, eff := range rep.Efficiency {
			if eff <= 0 || eff > 1 {
				t.Fatalf("efficiency %v for %s out of (0, 1]\n%s", eff, fn, ir.Print(m))
			}
		}
		pipe, err := core.ParsePipeline("barrier-safety")
		if err != nil {
			t.Fatal(err)
		}
		_, verr := core.CompilePipeline(m, core.Options{}, pipe)
		var se *core.SafetyError
		if verr != nil && !errors.As(verr, &se) {
			// Rejected before the verifier ran (module-level validation);
			// no barrier-safety verdict to compare.
			return
		}
		analyzeClean := len(rep.Errors()) == 0
		if analyzeClean != (verr == nil) {
			t.Fatalf("analyzer clean=%v but verifier error=%v on:\n%s",
				analyzeClean, verr, ir.Print(m))
		}
	})
}

// FuzzRepair hammers the automated-repair driver: Repair must never
// panic on any module the parser accepts, its output must remain
// well-formed (Print/Parse round trip, re-analysis without panic), and
// it must be a no-op on analyzer-clean kernels — zero edits and no new
// error diagnostics. When the driver claims a clean fixpoint, an
// independent re-analysis of the repaired module must agree.
func FuzzRepair(f *testing.F) {
	for _, seed := range []string{fuzzSeedMinimal, fuzzSeedLoop, fuzzSeedBarriers, fuzzSeedPredict} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ir.Parse(src)
		if err != nil {
			return
		}
		for _, fn := range m.Funcs {
			if fn.NRegs > 256 || fn.NFRegs > 256 || len(fn.Blocks) > 256 {
				return
			}
		}
		before := analyze.Analyze(m, analyze.Options{EffNoteBelow: 1})
		clone := m.Clone()
		rep := repair.Repair(clone, repair.Options{EffNoteBelow: 1})

		out := ir.Print(clone)
		if _, err := ir.Parse(out); err != nil {
			t.Fatalf("repaired module does not re-parse: %v\n--- input\n%s\n--- repaired\n%s",
				err, ir.Print(m), out)
		}
		after := analyze.Analyze(clone, analyze.Options{EffNoteBelow: 1})

		if len(before.Errors()) == 0 {
			if len(rep.Edits) != 0 {
				t.Fatalf("repair edited an analyzer-clean kernel (%d edits):\n%s",
					len(rep.Edits), ir.Print(m))
			}
			if n := len(after.Errors()); n != 0 {
				t.Fatalf("repair introduced %d error(s) on a clean kernel:\n%s", n, out)
			}
		}
		if rep.Clean() != (len(after.Errors()) == 0) {
			t.Fatalf("report clean=%v but re-analysis has %d error(s) (gave up: %q)\n%s",
				rep.Clean(), len(after.Errors()), rep.GaveUp, out)
		}
	})
}

// FuzzPipeline feeds parsed kernels to the differential checker: the
// baseline and speculative pipelines must not panic on any accepted
// module, and whenever the baseline build runs cleanly under strict
// barrier accounting, the speculative build must terminate with the
// same memory image. Kernels whose baseline itself fails (fuzz-crafted
// barrier abuse, infinite loops) are skips, and modules the speculative
// lowering rejects with an error are fine — only a differential
// divergence is a finding.
func FuzzPipeline(f *testing.F) {
	for _, seed := range []string{fuzzSeedMinimal, fuzzSeedLoop, fuzzSeedBarriers, fuzzSeedPredict} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ir.Parse(src)
		if err != nil {
			return
		}
		// Clamp resources so a fuzz-crafted header cannot allocate its
		// way out of the harness budget.
		if m.MemWords > 1<<16 {
			return
		}
		for _, fn := range m.Funcs {
			if fn.NRegs > 256 || fn.NFRegs > 256 || len(fn.Blocks) > 256 {
				return
			}
		}
		k := diffcheck.Kernel{Name: "fuzz", Module: m, Threads: ir.WarpWidth, Seed: 1}
		res := diffcheck.Check(k, diffcheck.Options{
			MaxIssues:    1 << 20,
			AutoAnnotate: true,
		})
		if res.OK || res.Stage.BaselineFailure() || res.Stage == diffcheck.StageCompileSpec {
			return
		}
		t.Fatalf("differential finding at %s: %v\n%s", res.Stage, res.Err, ir.Print(m))
	})
}
