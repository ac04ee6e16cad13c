package core

import (
	"fmt"
	"sort"
	"strconv"

	"specrecon/internal/analyze"
	"specrecon/internal/cfg"
	"specrecon/internal/divergence"
	"specrecon/internal/ir"
)

// Automatic detection of reconvergence points, paper section 4.5. The
// detector looks for the two CFG patterns of section 3 — a divergent
// branch inside a loop (Iteration Delay) and a divergent-trip-count inner
// loop nested in an outer loop (Loop Merge) — and applies a static
// cost-benefit test built from three ingredients the paper names:
// weighted instruction counts of the common code versus the prolog/epilog
// (weighted by latency, estimated trip count and nest depth), memory
// access patterns (prolog/epilog memory operations become divergent and
// uncoalesced after the transform, so they are charged extra), and
// synchronization requirements (regions containing warp-synchronous
// operations are rejected).

func init() {
	RegisterPass(PassInfo{
		Name:        "autodetect",
		Description: "annotate profitable reconvergence opportunities automatically (arg: min score, e.g. autodetect=1.5)",
		Build: func(arg string) (Pass, error) {
			opts := DefaultAutoDetectOptions()
			if arg != "" {
				min, err := strconv.ParseFloat(arg, 64)
				if err != nil {
					return nil, fmt.Errorf("pass \"autodetect\": bad min score %q: %v", arg, err)
				}
				opts.MinScore = min
			}
			return &pass{
				name: "autodetect",
				spec: specOf("autodetect", arg),
				run: func(c *PassContext) error {
					for _, cand := range AutoAnnotate(c.Mod, opts) {
						c.Remarkf(cand.Fn.Name, cand.At.Name, "%s candidate: label %q, score %.2f", cand.Kind, cand.Label.Name, cand.Score())
					}
					return nil
				},
			}, nil
		},
	})
}

// PatternKind classifies a detected opportunity.
type PatternKind int

const (
	// PatternIterationDelay is a divergent branch in a loop whose taken
	// side is expensive (Figure 2(a)).
	PatternIterationDelay PatternKind = iota
	// PatternLoopMerge is an inner loop with a divergent trip count
	// nested in an outer loop (Figure 2(b)).
	PatternLoopMerge
)

func (k PatternKind) String() string {
	switch k {
	case PatternIterationDelay:
		return "iteration-delay"
	case PatternLoopMerge:
		return "loop-merge"
	}
	return fmt.Sprintf("pattern(%d)", int(k))
}

// Candidate is one detected opportunity with its cost-model scores.
type Candidate struct {
	Fn    *ir.Function
	Kind  PatternKind
	At    *ir.Block // proposed region start
	Label *ir.Block // proposed reconvergence point
	// CommonCost is the weighted cost of the code made convergent;
	// OverheadCost is the weighted cost of the prolog/epilog code made
	// divergent, including the memory-divergence surcharge.
	CommonCost   float64
	OverheadCost float64
}

// Score is the benefit/overhead ratio; candidates score above
// AutoDetectOptions.MinScore to be applied.
func (c *Candidate) Score() float64 {
	if c.OverheadCost <= 0 {
		return c.CommonCost
	}
	return c.CommonCost / c.OverheadCost
}

// AutoDetectOptions tunes the detector.
type AutoDetectOptions struct {
	// TripCount is the static estimate for loop iterations when no
	// profile is available (paper: "Static analysis is limited by its
	// inability to predict dynamic loop counts").
	TripCount float64
	// MemPenalty multiplies the latency of prolog/epilog memory
	// operations, modeling lost coalescing.
	MemPenalty float64
	// MinScore is the profitability threshold.
	MinScore float64
	// Threshold is the soft-barrier threshold given to auto-applied
	// predictions. The paper leaves discovering the ideal per-kernel
	// threshold to future work; a fixed high default avoids the
	// inline-refill serialization of a full barrier.
	Threshold int
	// Profile, when non-nil, supplies measured per-block visit counts
	// (active lanes entering each block) from a baseline run, keyed by
	// block name; it replaces the static trip-count weighting.
	Profile map[string]int64
}

// DefaultAutoDetectOptions returns the tuning used in the evaluation:
// the MinScore screen is calibrated on the synthetic corpus so that
// detected candidates mostly avoid regressions while keeping the strong
// opportunities (see internal/harness/figure10.go).
func DefaultAutoDetectOptions() AutoDetectOptions {
	return AutoDetectOptions{TripCount: 8, MemPenalty: 4, MinScore: 10, Threshold: 28}
}

// DetectOpportunities scans every function of m and returns scored
// candidates, best first.
func DetectOpportunities(m *ir.Module, opts AutoDetectOptions) []Candidate {
	var out []Candidate
	facts := analyze.NewFacts(m)
	for _, f := range m.Funcs {
		out = append(out, detectInFunction(facts, f, opts)...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score() > out[j].Score() })
	return out
}

// AutoAnnotate runs the detector and attaches predictions for every
// candidate scoring at least opts.MinScore, skipping candidates whose
// regions overlap an already-annotated one (conflicting concurrent
// predictions are future work in the paper). It returns the applied
// candidates. The module is annotated in place; pass a clone if the
// original must stay pristine.
func AutoAnnotate(m *ir.Module, opts AutoDetectOptions) []Candidate {
	cands := DetectOpportunities(m, opts)
	var applied []Candidate
	taken := map[*ir.Block]bool{}
	for _, c := range cands {
		if c.Score() < opts.MinScore {
			continue
		}
		if taken[c.Label] || taken[c.At] {
			continue
		}
		taken[c.Label] = true
		taken[c.At] = true
		c.Fn.Predictions = append(c.Fn.Predictions, ir.Prediction{At: c.At, Label: c.Label, Threshold: opts.Threshold})
		applied = append(applied, c)
	}
	return applied
}

func detectInFunction(facts *analyze.Facts, f *ir.Function, opts AutoDetectOptions) []Candidate {
	info, div := facts.CFG(f), facts.Divergence(f)

	// Synchronization requirement: regions containing warp-synchronous
	// operations must not have their convergence changed.
	hasWarpSync := func(blocks []*ir.Block) bool {
		for _, b := range blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op.IsWarpSynchronous() {
					return true
				}
			}
		}
		return false
	}

	var out []Candidate
	for _, l := range info.Loops {
		if hasWarpSync(l.Blocks) {
			continue
		}
		if c, ok := detectLoopMerge(f, info, div, l, opts); ok {
			out = append(out, c)
			continue // prefer loop merge over iteration delay in the same nest
		}
		if c, ok := detectIterationDelay(f, info, div, l, opts); ok {
			out = append(out, c)
		}
	}
	return out
}

// detectLoopMerge matches an inner loop of l whose exit branch is
// divergent: the inner body is common across outer iterations.
func detectLoopMerge(f *ir.Function, info *cfg.Info, div *divergence.Info, outer *cfg.Loop, opts AutoDetectOptions) (Candidate, bool) {
	for _, inner := range info.Loops {
		if inner.Parent != outer {
			continue
		}
		// The inner loop's trip count is divergent when some in-loop
		// divergent branch exits it.
		divergentTrip := false
		for _, b := range inner.Blocks {
			if !div.DivergentBranch[b.Index] {
				continue
			}
			for _, s := range b.Succs {
				if !inner.Contains(s) {
					divergentTrip = true
				}
			}
		}
		if !divergentTrip {
			continue
		}
		// Reconvergence point: the inner loop's body block (the header
		// successor inside the loop, where an iteration's work starts).
		var label *ir.Block
		for _, s := range inner.Header.Succs {
			if inner.Contains(s) && s != inner.Header {
				label = s
				break
			}
		}
		if label == nil {
			label = inner.Header
		}
		at := inner.Preheader(info)
		if at == nil || !outer.Contains(at) {
			continue
		}

		common := loopCost(f, inner.Blocks, opts) * opts.TripCount
		var overhead float64
		for _, b := range outer.Blocks {
			if inner.Contains(b) {
				continue
			}
			overhead += blockCost(f, b, opts)
		}
		c := Candidate{
			Fn: f, Kind: PatternLoopMerge, At: at, Label: label,
			CommonCost: common, OverheadCost: overhead,
		}
		if profiled(opts) {
			c.CommonCost, c.OverheadCost = profileCosts(f, inner.Blocks, outerMinusInner(outer, inner), opts)
		}
		return c, true
	}
	return Candidate{}, false
}

// detectIterationDelay matches a divergent branch inside l guarding an
// expensive side block (Figure 2(a)).
func detectIterationDelay(f *ir.Function, info *cfg.Info, div *divergence.Info, l *cfg.Loop, opts AutoDetectOptions) (Candidate, bool) {
	best := Candidate{}
	found := false
	for _, b := range l.Blocks {
		if !div.DivergentBranch[b.Index] {
			continue
		}
		// Skip loop-exit branches; those are trip-count divergence.
		exits := false
		for _, s := range b.Succs {
			if !l.Contains(s) {
				exits = true
			}
		}
		if exits || len(b.Succs) != 2 {
			continue
		}
		pd := info.Ipdom(b)
		if pd == nil {
			continue
		}
		// Cost each side: the blocks between the successor and the
		// post-dominator.
		for _, s := range b.Succs {
			side := sideBlocks(f, s, pd)
			if len(side) == 0 {
				continue
			}
			common := 0.0
			for _, sb := range side {
				common += blockCost(f, sb, opts)
			}
			var overhead float64
			for _, lb := range l.Blocks {
				inSide := false
				for _, sb := range side {
					if sb == lb {
						inSide = true
					}
				}
				if !inSide {
					overhead += blockCost(f, lb, opts)
				}
			}
			at := l.Preheader(info)
			if at == nil {
				continue
			}
			c := Candidate{
				Fn: f, Kind: PatternIterationDelay, At: at, Label: s,
				CommonCost: common, OverheadCost: overhead,
			}
			if profiled(opts) {
				c.CommonCost, c.OverheadCost = profileCosts(f, side, loopMinus(l, side), opts)
			}
			if !found || c.Score() > best.Score() {
				best = c
				found = true
			}
		}
	}
	return best, found
}

// sideBlocks returns blocks reachable from start without crossing stop.
func sideBlocks(f *ir.Function, start, stop *ir.Block) []*ir.Block {
	if start == stop {
		return nil
	}
	seen := make([]bool, len(f.Blocks))
	var out []*ir.Block
	stack := []*ir.Block{start}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b.Index] || b == stop {
			continue
		}
		seen[b.Index] = true
		out = append(out, b)
		for _, s := range b.Succs {
			stack = append(stack, s)
		}
	}
	return out
}

func outerMinusInner(outer, inner *cfg.Loop) []*ir.Block {
	var out []*ir.Block
	for _, b := range outer.Blocks {
		if !inner.Contains(b) {
			out = append(out, b)
		}
	}
	return out
}

func loopMinus(l *cfg.Loop, side []*ir.Block) []*ir.Block {
	inSide := map[*ir.Block]bool{}
	for _, b := range side {
		inSide[b] = true
	}
	var out []*ir.Block
	for _, b := range l.Blocks {
		if !inSide[b] {
			out = append(out, b)
		}
	}
	return out
}

// blockCost is the latency-weighted instruction count of a block, with
// memory operations surcharged by the memory-divergence penalty.
func blockCost(f *ir.Function, b *ir.Block, opts AutoDetectOptions) float64 {
	cost := 0.0
	for i := range b.Instrs {
		in := &b.Instrs[i]
		c := float64(in.Op.Latency())
		if in.Op.IsMemory() {
			c *= opts.MemPenalty
		}
		cost += c
	}
	return cost
}

// loopCost sums block costs across a loop body.
func loopCost(f *ir.Function, blocks []*ir.Block, opts AutoDetectOptions) float64 {
	cost := 0.0
	for _, b := range blocks {
		cost += blockCost(f, b, opts)
	}
	return cost
}

func profiled(opts AutoDetectOptions) bool { return opts.Profile != nil }

// profileCosts weights block costs by measured visit counts instead of
// the static trip-count guess.
func profileCosts(f *ir.Function, common, overhead []*ir.Block, opts AutoDetectOptions) (c, o float64) {
	weight := func(b *ir.Block) float64 {
		if v, ok := opts.Profile[b.Name]; ok && v > 0 {
			return float64(v)
		}
		return 1
	}
	for _, b := range common {
		c += blockCost(f, b, opts) * weight(b)
	}
	for _, b := range overhead {
		o += blockCost(f, b, opts) * weight(b)
	}
	return c, o
}
