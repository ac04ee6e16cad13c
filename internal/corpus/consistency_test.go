package corpus

import (
	"math"
	"testing"

	"specrecon/internal/core"
	"specrecon/internal/simt"
)

// Cross-configuration consistency fuzz: for a batch of machine-generated
// kernels, every combination of compile options (baseline / speculative
// at several thresholds / static deconfliction) and execution
// configuration (both engines, every scheduler policy) must produce the
// same final memory. This is the repository's strongest semantic
// invariant: synchronization and scheduling are performance mechanisms,
// never semantics.

func wordsEqualish(a, b uint64) bool {
	if a == b {
		return true
	}
	fa, fb := math.Float64frombits(a), math.Float64frombits(b)
	if math.IsNaN(fa) && math.IsNaN(fb) {
		return true
	}
	if math.Abs(fa) < 1e-300 || math.Abs(fb) < 1e-300 {
		return false
	}
	diff := math.Abs(fa - fb)
	return diff <= 1e-9*math.Max(math.Abs(fa), math.Abs(fb))
}

func TestCrossConfigConsistency(t *testing.T) {
	apps := Generate(48, 2026)

	compileVariants := func(app *App) []*core.Compilation {
		var out []*core.Compilation
		mods := []*struct {
			opts core.Options
		}{
			{core.BaselineOptions()},
			{func() core.Options {
				o := core.SpecReconOptions()
				o.ThresholdOverride = 16
				return o
			}()},
			{func() core.Options {
				o := core.SpecReconOptions()
				o.Deconflict = core.DeconflictStatic
				return o
			}()},
		}
		// Annotate a clone so the speculative variants have something
		// to lower; kernels without detected opportunity just compile
		// to the baseline shape.
		annotated := app.Module.Clone()
		core.AutoAnnotate(annotated, core.AutoDetectOptions{MinScore: 1, Threshold: 0})
		for i, v := range mods {
			src := app.Module
			if i > 0 {
				src = annotated
			}
			comp, err := core.Compile(src, v.opts)
			if err != nil {
				t.Fatalf("%s: compile variant %d: %v", app.Name, i, err)
			}
			out = append(out, comp)
		}
		return out
	}

	for _, app := range apps {
		var ref []uint64
		for ci, comp := range compileVariants(app) {
			for _, model := range []simt.Model{simt.ModelITS, simt.ModelStack} {
				policies := []simt.Policy{simt.PolicyMaxGroup}
				if model == simt.ModelITS {
					policies = []simt.Policy{simt.PolicyMaxGroup, simt.PolicyMinPC, simt.PolicyRoundRobin}
				}
				for _, pol := range policies {
					res, err := simt.Run(comp.Module, simt.Config{
						Kernel: app.Kernel, Threads: app.Threads, Seed: app.Seed,
						Memory: app.Memory, Policy: pol, Model: model,
						Strict: model == simt.ModelITS,
					})
					if err != nil {
						t.Fatalf("%s: variant %d model=%v policy=%v: %v", app.Name, ci, model, pol, err)
					}
					if ref == nil {
						ref = res.Memory
						continue
					}
					for i := range ref {
						if !wordsEqualish(ref[i], res.Memory[i]) {
							t.Fatalf("%s: variant %d model=%v policy=%v diverges at word %d (%#x vs %#x)",
								app.Name, ci, model, pol, i, ref[i], res.Memory[i])
						}
					}
				}
			}
		}
	}
}
