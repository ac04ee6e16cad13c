package core

import (
	"fmt"

	"specrecon/internal/cfg"
	"specrecon/internal/ir"
)

func init() {
	registerSimplePass("predict",
		"lower Predict annotations into speculative join/wait/rejoin/cancel barriers",
		BarriersOnly,
		func(c *PassContext) error {
			for _, f := range c.Mod.Funcs {
				if err := c.applyPredictions(f); err != nil {
					return fmt.Errorf("func %q: %w", f.Name, err)
				}
			}
			return nil
		})
}

// applyPredictions lowers every Prediction of f (paper section 4.2) and
// records the speculative waits it placed so that a later deconflict
// pass can run conflict analysis (section 4.3) over the function as a
// whole — conflicts between speculative barriers and both PDOM barriers
// and other speculative barriers are handled there.
func (c *PassContext) applyPredictions(f *ir.Function) error {
	if len(f.Predictions) == 0 {
		return nil
	}
	var waits []specWait
	for i := range f.Predictions {
		p := f.Predictions[i]
		var (
			sw  specWait
			err error
		)
		if p.Callee != "" {
			sw, err = c.applyCallPrediction(f, p)
		} else {
			sw, err = c.applyLabelPrediction(f, p)
		}
		if err != nil {
			return err
		}
		waits = append(waits, sw)
	}
	c.specWaits = append(c.specWaits, funcWaits{f: f, waits: waits})
	return nil
}

// specWait records where a speculative barrier waits, for deconfliction.
type specWait struct {
	bar     int
	exitBar int // -1 when no region-exit barrier was created
	// waitFn/waitBlock locate the wait instruction: for label
	// predictions the label block of f; for interprocedural ones the
	// callee's entry block.
	waitFn    *ir.Function
	waitBlock *ir.Block
	interproc bool
}

// threshold resolves the effective soft-barrier threshold for p.
func (c *PassContext) threshold(p ir.Prediction) int {
	if c.Opts.ThresholdOverride >= 0 {
		return c.Opts.ThresholdOverride
	}
	return p.Threshold
}

// waitInstr builds the hard or soft wait for a barrier.
func waitInstr(bar, threshold int) ir.Instr {
	if threshold > 0 {
		return ir.Instr{Op: ir.OpWaitN, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Bar: bar, Imm: int64(threshold)}
	}
	return ir.Instr{Op: ir.OpWait, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Bar: bar}
}

func barInstr(op ir.Opcode, bar int) ir.Instr {
	return ir.Instr{Op: op, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Bar: bar}
}

// applyLabelPrediction lowers one intra-procedural prediction:
//
//   - the prediction region is the set of blocks from which the label is
//     still reachable, intersected with blocks reachable from the region
//     start ("the region ends where all threads are no longer able to
//     reach the label", section 4.1);
//   - JoinBarrier(b0) at the region start, WaitBarrier(b0) at the label,
//     RejoinBarrier(b0) immediately after the cleared wait (Figure 4(d));
//   - CancelBarrier(b0) where joined threads may escape the region: at
//     the top of every region-exit edge target and before thread-exiting
//     terminators inside the region;
//   - an orthogonal pair JoinBarrier(b1)/WaitBarrier(b1) at the region
//     start and the region's post-dominator collects all threads at the
//     region exit.
func (c *PassContext) applyLabelPrediction(f *ir.Function, p ir.Prediction) (specWait, error) {
	info := c.facts.CFG(f)
	if !info.Reachable(p.At) || !info.Reachable(p.Label) {
		return specWait{}, fmt.Errorf("prediction region start %q or label %q unreachable", p.At.Name, p.Label.Name)
	}

	region := predictionRegion(f, info, p.At, p.Label)
	if !region[p.Label.Index] {
		return specWait{}, fmt.Errorf("label %q not reachable from region start %q", p.Label.Name, p.At.Name)
	}

	bSpec := c.newBarrier(KindSpec, f, "")
	exitBar := -1

	// Region-exit barrier: collect all threads at the nearest common
	// post-dominator of the region, when one exists before thread exit.
	var regionBlocks []*ir.Block
	for _, b := range f.Blocks {
		if region[b.Index] {
			regionBlocks = append(regionBlocks, b)
		}
	}
	// Wait + rejoin at the label, join at the region start.
	p.Label.InsertTop(barInstr(ir.OpJoin, bSpec)) // RejoinBarrier
	p.Label.InsertTop(waitInstr(bSpec, c.threshold(p)))
	p.At.InsertTop(barInstr(ir.OpJoin, bSpec))

	pd := info.CommonPostDominator(regionBlocks)
	if pd != nil && region[pd.Index] {
		// The nearest common post-dominator can sit inside the region
		// (e.g. a loop header all iterations funnel through); climb the
		// post-dominator tree to the first block past the region.
		pd = info.StrictIpdomOutside(pd, func(b *ir.Block) bool { return region[b.Index] })
	}
	if pd != nil {
		exitBar = c.newBarrier(KindExit, f, "")
		pd.InsertTop(waitInstr(exitBar, 0))
		// The exit barrier's join goes above the speculative join so
		// that the speculative barrier's live interval is fully
		// contained in the exit barrier's (they must not conflict).
		p.At.InsertTop(barInstr(ir.OpJoin, exitBar))
	}

	// Cancels at region exits. Exit targets cannot re-enter the region
	// (re-entering would mean reaching the label, contradicting their
	// membership outside the region), and cancelling a barrier one does
	// not participate in is a no-op, so cancelling at the top of each
	// exit target is always safe. Placing them at the very top also
	// puts them above any PDOM or exit-barrier waits in the same block,
	// which is required: a thread must drop its speculative
	// participation before blocking on anything else.
	for _, v := range exitTargets(f, region) {
		v.InsertTop(barInstr(ir.OpCancel, bSpec))
	}
	for _, u := range regionBlocks {
		t := u.Terminator()
		if t.Op == ir.OpExit || t.Op == ir.OpRet {
			u.InsertBeforeTerminator(barInstr(ir.OpCancel, bSpec))
			if exitBar >= 0 {
				u.InsertBeforeTerminator(barInstr(ir.OpCancel, exitBar))
			}
		}
	}

	if exitBar >= 0 {
		c.Remarkf(f.Name, p.At.Name, "label prediction %q: speculative barrier b%d (threshold %d), region-exit barrier b%d", p.Label.Name, bSpec, c.threshold(p), exitBar)
	} else {
		c.Remarkf(f.Name, p.At.Name, "label prediction %q: speculative barrier b%d (threshold %d), no region-exit barrier", p.Label.Name, bSpec, c.threshold(p))
	}
	return specWait{bar: bSpec, exitBar: exitBar, waitFn: f, waitBlock: p.Label}, nil
}

// applyCallPrediction lowers one interprocedural prediction (section
// 4.4): the reconvergence point is the entry of the named callee. The
// barrier joins at the region start in the caller, waits at the callee's
// entry, rejoins after every region call site (threads that may call
// again must rejoin), and cancels at region exits. No region-exit barrier
// is created: "reconvergence within the function body does not conflict
// with the compiler inserted reconvergence point at the post-dominator,
// nor does it affect convergence properties of the code outside the
// function body".
func (c *PassContext) applyCallPrediction(f *ir.Function, p ir.Prediction) (specWait, error) {
	callee := c.Mod.FuncByName(p.Callee)
	if callee == nil {
		return specWait{}, fmt.Errorf("prediction callee %q not found", p.Callee)
	}
	info := c.facts.CFG(f)
	if !info.Reachable(p.At) {
		return specWait{}, fmt.Errorf("prediction region start %q unreachable", p.At.Name)
	}

	// Blocks containing calls to the callee.
	var callBlocks []*ir.Block
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if in := &b.Instrs[i]; in.Op == ir.OpCall && in.Callee == p.Callee {
				callBlocks = append(callBlocks, b)
				break
			}
		}
	}
	if len(callBlocks) == 0 {
		return specWait{}, fmt.Errorf("prediction callee %q is never called from %q", p.Callee, f.Name)
	}

	// Region: can reach some call site, and reachable from the start.
	fromAt := cfg.ReachableFrom(f, p.At)
	region := make([]bool, len(f.Blocks))
	for _, cb := range callBlocks {
		reach := cfg.CanReach(f, info, cb)
		for i := range region {
			region[i] = region[i] || (reach[i] && fromAt[i])
		}
	}
	if !region[p.At.Index] {
		return specWait{}, fmt.Errorf("region start %q cannot reach any call to %q", p.At.Name, p.Callee)
	}

	bSpec := c.newBarrier(KindSpecCall, f, p.Callee)

	// Wait at the callee entry.
	callee.Entry().InsertTop(waitInstr(bSpec, c.threshold(p)))

	// Join at the region start; rejoin after every region call site.
	p.At.InsertTop(barInstr(ir.OpJoin, bSpec))
	for _, b := range f.Blocks {
		if !region[b.Index] {
			continue
		}
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			if in := &b.Instrs[i]; in.Op == ir.OpCall && in.Callee == p.Callee {
				b.InsertAt(i+1, barInstr(ir.OpJoin, bSpec))
			}
		}
	}

	// Cancels at region exits and thread-exit terminators.
	for _, v := range exitTargets(f, region) {
		v.InsertTop(barInstr(ir.OpCancel, bSpec))
	}
	for _, u := range f.Blocks {
		if !region[u.Index] {
			continue
		}
		t := u.Terminator()
		if t.Op == ir.OpExit || t.Op == ir.OpRet {
			u.InsertBeforeTerminator(barInstr(ir.OpCancel, bSpec))
		}
	}

	c.Remarkf(f.Name, p.At.Name, "call prediction %q: interprocedural barrier b%d (threshold %d), %d call sites", p.Callee, bSpec, c.threshold(p), len(callBlocks))
	return specWait{bar: bSpec, exitBar: -1, waitFn: callee, waitBlock: callee.Entry(), interproc: true}, nil
}

// predictionRegion computes the paper's prediction region at block
// granularity: blocks reachable from the start from which the label is
// still reachable.
func predictionRegion(f *ir.Function, info *cfg.Info, at, label *ir.Block) []bool {
	fromAt := cfg.ReachableFrom(f, at)
	toLabel := cfg.CanReach(f, info, label)
	region := make([]bool, len(f.Blocks))
	for i := range region {
		region[i] = fromAt[i] && toLabel[i]
	}
	return region
}

// exitTargets returns the distinct blocks outside the region that are
// successors of region blocks.
func exitTargets(f *ir.Function, region []bool) []*ir.Block {
	seen := make(map[*ir.Block]bool)
	var out []*ir.Block
	for _, u := range f.Blocks {
		if !region[u.Index] {
			continue
		}
		for _, v := range u.Succs {
			if !region[v.Index] && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}
