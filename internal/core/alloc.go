package core

import (
	"fmt"

	"specrecon/internal/dataflow"
	"specrecon/internal/ir"
)

// Barrier register allocation. Virtual barriers minted by the passes must
// land on the warp's NumBarrierRegs physical barrier registers (Volta has
// 16). Two barriers interfere when their joined ranges overlap within a
// function, or when one is joined across a call into a function that uses
// the other (barrier masks are warp state shared across the whole call
// graph). Allocation is greedy graph coloring over that interference
// relation; running out of colors is a compile error, as on hardware.
func (c *PassContext) allocateBarriers() error {
	n := c.nextBar
	if n == 0 {
		return nil
	}
	// Every set of barriers is a row of w words over the virtual ids,
	// cut from the record's pass scratch: interf row b is what b
	// interferes with, used row i the barriers function i names, and
	// trans row i those of everything function i calls as well.
	ps, w := c.facts.PassScratch(), (n+63)/64
	rows := func(k int) bitRows { return bitRows{ps.Bits(64 * k * w), w} }
	interf, used, trans := rows(n), rows(len(c.Mod.Funcs)), rows(len(c.Mod.Funcs))
	allUsed := ps.Bits(n)
	addEdge := func(a, b int) {
		if a != b {
			interf.row(a).Set(b)
			interf.row(b).Set(a)
		}
	}

	for i, f := range c.Mod.Funcs {
		for _, b := range f.Blocks {
			for k := range b.Instrs {
				if in := &b.Instrs[k]; in.Op.IsBarrierOp() {
					used.row(i).Set(in.Bar)
				}
			}
		}
		trans.row(i).Copy(used.row(i))
		allUsed.UnionWith(used.row(i))
	}
	// trans closes used over the call graph.
	for changed := true; changed; {
		changed = false
		for i, f := range c.Mod.Funcs {
			for _, b := range f.Blocks {
				for k := range b.Instrs {
					if in := &b.Instrs[k]; in.Op == ir.OpCall {
						if j := c.Mod.FuncIndex(in.Callee); j >= 0 && trans.row(i).UnionWith(trans.row(j)) {
							changed = true
						}
					}
				}
			}
		}
	}

	for _, f := range c.Mod.Funcs {
		intervals, fp := dataflow.JoinedIntervals(c.facts.Scratch(), f, c.facts.CFG(f))

		// A barrier's range within f is the union of its intervals,
		// which come in barrier order; ranges are unioned in place.
		ranges := intervals[:0]
		for _, iv := range intervals {
			if k := len(ranges) - 1; k >= 0 && ranges[k].Bar == iv.Bar {
				ranges[k].Points.UnionWith(iv.Points)
			} else {
				ranges = append(ranges, iv)
			}
		}
		for i, a := range ranges {
			for _, b := range ranges[i+1:] {
				if intersects(a.Points, b.Points) {
					addEdge(a.Bar, b.Bar)
				}
			}
		}

		// Cross-call interference: a barrier joined at a call point
		// interferes with every barrier the callee may touch.
		for _, blk := range f.Blocks {
			for i := range blk.Instrs {
				in := &blk.Instrs[i]
				if in.Op != ir.OpCall {
					continue
				}
				j, pt := c.Mod.FuncIndex(in.Callee), fp.ID(blk.Index, i)
				for _, r := range ranges {
					if j >= 0 && r.Points.Has(pt) {
						trans.row(j).ForEach(func(other int) { addEdge(r.Bar, other) })
					}
				}
			}
		}
	}

	// Interprocedural speculative barriers span caller and callee:
	// conservatively interfere with everything used in either.
	for _, bi := range c.barriers {
		if bi.Kind != KindSpecCall {
			continue
		}
		for _, name := range []string{bi.Fn.Name, bi.Callee} {
			if j := c.Mod.FuncIndex(name); j >= 0 {
				used.row(j).ForEach(func(other int) { addEdge(bi.ID, other) })
			}
		}
	}

	// Greedy coloring in id order (creation order approximates program
	// order, which colors well for these nesting-structured ranges).
	assignment := make(map[int]int, n)
	for b := 0; b < n; b++ {
		if !allUsed.Has(b) {
			continue
		}
		var taken [ir.NumBarrierRegs]bool
		interf.row(b).ForEach(func(other int) {
			if phys, ok := assignment[other]; ok {
				taken[phys] = true
			}
		})
		phys := -1
		for r := 0; r < ir.NumBarrierRegs; r++ {
			if !taken[r] {
				phys = r
				break
			}
		}
		if phys < 0 {
			return fmt.Errorf("barrier allocation failed: more than %d simultaneously live barriers (virtual b%d, kind %s)",
				ir.NumBarrierRegs, b, c.barriers[b].Kind)
		}
		assignment[b] = phys
	}

	for _, f := range c.Mod.Funcs {
		for _, blk := range f.Blocks {
			for i := range blk.Instrs {
				if in := &blk.Instrs[i]; in.Op.IsBarrierOp() {
					in.Bar = assignment[in.Bar]
				}
			}
		}
	}
	c.result.BarrierAssignment = assignment
	return nil
}

// bitRows is a table of sets, each a row of w words.
type bitRows struct {
	bits dataflow.Bits
	w    int
}

func (t bitRows) row(i int) dataflow.Bits { return t.bits[i*t.w : (i+1)*t.w : (i+1)*t.w] }

func intersects(a, b dataflow.Bits) bool {
	for i := range a {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}
