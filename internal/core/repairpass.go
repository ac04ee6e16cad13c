package core

import (
	"fmt"
	"strconv"

	"specrecon/internal/repair"
)

func init() {
	RegisterPass(PassInfo{
		Name:        "repair",
		Description: "analysis-driven automated repair: apply the analyzer's machine edits to fixpoint before verification (arg: iteration budget)",
		Build: func(arg string) (Pass, error) {
			iters := 0
			if arg != "" {
				v, err := strconv.Atoi(arg)
				if err != nil || v < 1 {
					return nil, fmt.Errorf("pass \"repair\": bad iteration budget %q (want a positive integer)", arg)
				}
				iters = v
			}
			return &pass{
				name:   "repair",
				spec:   specOf("repair", arg),
				effect: BarriersOnly,
				run: func(c *PassContext) error {
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
					// Never fail: the barrier-safety verifier downstream
					// renders the verdict on whatever repair left behind.
					return nil
				},
			}, nil
		},
	})
}

// RepairPipelineFor derives the fail-safe pipeline with the repair pass
// in front of the verifier: ... deconflict [inject] repair
// barrier-safety alloc. CompileSafe runs it as the second attempt after
// a plain SafePipelineFor build is rejected. Like SafePipelineFor, a
// CompilePipeline run of it keeps only the errors as Diagnostics.
func RepairPipelineFor(opts Options) *Pipeline {
	return pipelineWith(opts, "repair", "barrier-safety").own()
}
