package core

import (
	"specrecon/internal/analyze"
	"specrecon/internal/ir"
)

// DefaultEffNoteBelow is the static-efficiency threshold under which the
// analyze pass notes a kernel as a speculative-reconvergence candidate
// (the paper's workloads of interest sit below 80% SIMT efficiency).
const DefaultEffNoteBelow = 0.8

// report runs the full static analyzer, the "analyze" pass: every
// diagnostic becomes a remark, and kernels below thr static efficiency
// get a note.
func (c *PassContext) report(thr float64) error {
	opts := analyze.Options{EffNoteBelow: thr}
	if len(c.barriers) > 0 {
		// Barrier provenance exists (the pipeline minted barriers): run
		// the class-gated checks too.
		opts.ClassOf = c.barrierClassOf()
	}
	for _, d := range c.analyzed(opts, true) {
		c.Remarkf(d.Fn, d.Block, "%s %s: %s", d.Severity, d.Code, d.Msg)
	}
	return nil
}

// Diagnose compiles m under opts with the "analyze" pass inserted before
// register allocation (so diagnostics are stated in virtual barrier ids
// with their kinds) and returns the compilation carrying the full
// diagnostic report in Diagnostics/StaticEff. Unlike CompileSafe, a
// diagnostic does not fail the build. internal/ccache memoizes it, and
// the repo benchmark measures it.
func Diagnose(m *ir.Module, opts Options) (*Compilation, error) {
	return CompilePipeline(m, opts, pipelineWith(opts, "analyze", ""))
}
