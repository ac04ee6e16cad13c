package core

import (
	"specrecon/internal/analyze"
	"specrecon/internal/ir"
)

func init() {
	registerSimplePass("lint",
		"static diagnostics: uninitialized reads, unreachable blocks, barrier hygiene (read-only)",
		ReadsOnly,
		func(c *PassContext) error {
			for _, w := range Lint(c.Mod) {
				c.Remarkf(w.Fn, w.Block, "%s", w.Msg)
			}
			return nil
		})
}

// Lint runs best-effort static diagnostics over the module. It does not
// fail compilation — kernels with warnings may still be intentional —
// but the workloads and corpus generators are tested to be lint-clean.
//
// Lint is the warning-and-above slice of the full static analyzer
// (internal/analyze): uninitialized reads (SR2001, callees exempt —
// their low registers are parameters by convention), unreachable blocks
// (SR2002), barrier pairing hygiene (SR1001, SR2003), and joined
// barriers escaping through thread-exiting terminators (SR1002).
// Advisory notes (SR3xxx) are the analyzer's own; run cmd/sasmvet or
// the "analyze" pass to see them.
func Lint(m *ir.Module) []analyze.Diagnostic {
	rep := analyze.Analyze(m, analyze.Options{})
	return analyze.Filter(rep.Diags, analyze.SeverityWarning)
}
