package core

import "specrecon/internal/repair"

// repairToFixpoint is the "repair" pass: it applies the analyzer's
// machine edits to fixpoint within iters rounds (0 =
// repair.DefaultMaxIters). It never fails: the barrier-safety verifier
// downstream renders the verdict on whatever repair left behind.
func (c *PassContext) repairToFixpoint(iters int) error {
	rep := repair.RepairWith(c.facts, repair.Options{
		ClassOf:  c.barrierClassOf(),
		MaxIters: iters,
	})
	c.result.RepairReport = rep
	for _, ae := range rep.Edits {
		c.Remarkf(ae.Edit.Fn, ae.Edit.Block, "iteration %d: %s (%s)", ae.Iter, ae.Edit, ae.Code)
	}
	if len(rep.Edits) > 0 || !rep.Clean() {
		c.Remarkf("", "", "%s", rep.Summary())
	}
	return nil
}

// RepairPipelineFor derives the fail-safe pipeline with the repair pass
// in front of the verifier: ... deconflict [inject] repair
// barrier-safety alloc. CompileSafe runs it as the second attempt after
// a plain SafePipelineFor build is rejected. Like SafePipelineFor, a
// CompilePipeline run of it keeps only the errors as Diagnostics.
func RepairPipelineFor(opts Options) *Pipeline {
	return pipelineWith(opts, "repair", "barrier-safety").own()
}
