package core

import (
	"specrecon/internal/analyze"
	"specrecon/internal/cfg"
	"specrecon/internal/ir"
)

func init() {
	registerSimplePass("simplify",
		"control-flow cleanup: merge straight-line blocks, skip empty blocks, drop unreachable ones",
		Rewrites,
		func(c *PassContext) error {
			for _, f := range c.Mod.Funcs {
				if n := Simplify(f); n > 0 {
					c.Remarkf(f.Name, "", "%d control-flow simplifications", n)
				}
			}
			return nil
		})
}

// Simplify performs control-flow cleanups on a function, the kind of
// tidying a backend runs after inlining or unrolling:
//
//   - straight-line merge: a block whose sole successor has it as sole
//     predecessor is fused with that successor;
//   - empty-block skip: branches to a block containing only `br X` are
//     retargeted to X;
//   - unreachable-block removal.
//
// Blocks that participate in a prediction (region start or label) are
// never merged away or skipped: their identities carry annotation
// semantics. Simplify returns the number of changes made.
func Simplify(f *ir.Function) int {
	total := 0
	for {
		n := simplifyOnce(f)
		total += n
		if n == 0 {
			return total
		}
	}
}

// SimplifyModule runs Simplify over every function.
func SimplifyModule(m *ir.Module) int {
	total := 0
	for _, f := range m.Funcs {
		total += Simplify(f)
	}
	return total
}

func simplifyOnce(f *ir.Function) int {
	f.Reindex()
	changes := 0

	pinned := map[*ir.Block]bool{f.Entry(): true}
	for _, p := range f.Predictions {
		pinned[p.At] = true
		if p.Label != nil {
			pinned[p.Label] = true
		}
	}

	info := analyze.NewFacts(nil).CFG(f)

	// Empty-block skip: retarget edges around blocks that are just
	// `br X`.
	for _, b := range f.Blocks {
		for si, s := range b.Succs {
			if pinned[s] || len(s.Instrs) != 1 || s.Terminator().Op != ir.OpBr {
				continue
			}
			target := s.Succs[0]
			if target == s || target == b {
				continue
			}
			b.Succs[si] = target
			changes++
		}
	}
	if changes > 0 {
		pruneUnreachable(f)
		return changes
	}

	// Straight-line merge.
	for _, b := range f.Blocks {
		if b.Terminator().Op != ir.OpBr {
			continue
		}
		s := b.Succs[0]
		if s == b || pinned[s] {
			continue
		}
		if len(info.Preds[s.Index]) != 1 {
			continue
		}
		// Fuse: drop b's terminator, append s's instructions, take s's
		// successors.
		b.Instrs = append(b.Instrs[:len(b.Instrs)-1], s.Instrs...)
		b.Succs = s.Succs
		changes++
		pruneUnreachable(f)
		return changes // CFG info is stale; restart
	}

	changes += pruneUnreachable(f)
	return changes
}

// pruneUnreachable removes blocks not reachable from the entry,
// returning how many were dropped.
func pruneUnreachable(f *ir.Function) int {
	f.Reindex()
	reach := cfg.ReachableFrom(f, f.Entry())
	kept := f.Blocks[:0]
	dropped := 0
	for _, b := range f.Blocks {
		if reach[b.Index] {
			kept = append(kept, b)
		} else {
			dropped++
		}
	}
	if dropped > 0 {
		f.Blocks = kept
		f.Reindex()
	}
	return dropped
}
