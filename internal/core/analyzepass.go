package core

import (
	"fmt"
	"strconv"

	"specrecon/internal/analyze"
	"specrecon/internal/ir"
)

// DefaultEffNoteBelow is the static-efficiency threshold under which the
// analyze pass notes a kernel as a speculative-reconvergence candidate
// (the paper's workloads of interest sit below 80% SIMT efficiency).
const DefaultEffNoteBelow = 0.8

func init() {
	RegisterPass(PassInfo{
		Name:        "analyze",
		Description: "full static analysis: barrier-state interpretation, diagnostics, SIMT-efficiency estimates (read-only; arg: low-efficiency note threshold)",
		Analysis:    true,
		Build: func(arg string) (Pass, error) {
			thr := DefaultEffNoteBelow
			if arg != "" {
				v, err := strconv.ParseFloat(arg, 64)
				if err != nil || v < 0 || v > 1 {
					return nil, fmt.Errorf("pass \"analyze\": bad threshold %q (want a float in [0, 1])", arg)
				}
				thr = v
			}
			return &pass{
				name:   "analyze",
				spec:   specOf("analyze", arg),
				effect: ReadsOnly,
				run: func(c *PassContext) error {
					aOpts := analyze.Options{EffNoteBelow: thr}
					if len(c.barriers) > 0 {
						// Barrier provenance exists (the pipeline minted
						// barriers): run the class-gated checks too.
						aOpts.ClassOf = c.barrierClassOf()
					}
					for _, d := range c.analyzed(aOpts, true) {
						c.Remarkf(d.Fn, d.Block, "%s %s: %s", d.Severity, d.Code, d.Msg)
					}
					return nil
				},
			}, nil
		},
	})
}

// Diagnose compiles m under opts with the "analyze" pass inserted before
// register allocation (so diagnostics are stated in virtual barrier ids
// with their kinds) and returns the compilation carrying the full
// diagnostic report in Diagnostics/StaticEff. Unlike CompileSafe, a
// diagnostic does not fail the build — Diagnose is the reporting entry
// point behind cmd/sasmvet and specrecon -diagnostics.
func Diagnose(m *ir.Module, opts Options) (*Compilation, error) {
	return CompilePipeline(m, opts, pipelineWith(opts, "analyze", ""))
}
