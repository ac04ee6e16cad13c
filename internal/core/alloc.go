package core

import (
	"fmt"
	"sort"

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
func init() {
	registerSimplePass("alloc",
		"color virtual barriers onto the physical barrier registers",
		BarriersOnly,
		func(c *PassContext) error { return c.allocateBarriers() })
}

func (c *PassContext) allocateBarriers() error {
	n := c.nextBar
	if n == 0 {
		return nil
	}
	interf := make([]map[int]bool, n)
	addEdge := func(a, b int) {
		if a == b {
			return
		}
		if interf[a] == nil {
			interf[a] = make(map[int]bool)
		}
		if interf[b] == nil {
			interf[b] = make(map[int]bool)
		}
		interf[a][b] = true
		interf[b][a] = true
	}

	used := make(map[string]map[int]bool, len(c.Mod.Funcs))
	for _, f := range c.Mod.Funcs {
		s := make(map[int]bool)
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if in := &b.Instrs[i]; in.Op.IsBarrierOp() {
					s[in.Bar] = true
				}
			}
		}
		used[f.Name] = s
	}
	// usedTransitive includes barriers of everything a function calls.
	var usedTransitive func(name string, seen map[string]bool) map[int]bool
	usedTransitive = func(name string, seen map[string]bool) map[int]bool {
		out := make(map[int]bool)
		if seen[name] {
			return out
		}
		seen[name] = true
		f := c.Mod.FuncByName(name)
		if f == nil {
			return out
		}
		for b := range used[name] {
			out[b] = true
		}
		for _, blk := range f.Blocks {
			for i := range blk.Instrs {
				if in := &blk.Instrs[i]; in.Op == ir.OpCall {
					for b := range usedTransitive(in.Callee, seen) {
						out[b] = true
					}
				}
			}
		}
		return out
	}

	for _, f := range c.Mod.Funcs {
		intervals, fp := dataflow.JoinedIntervals(c.facts.Scratch(), f, c.facts.CFG(f))

		// Union point sets per barrier for interference within f.
		ranges := make(map[int]dataflow.Bits)
		for _, iv := range intervals {
			if r, ok := ranges[iv.Bar]; ok {
				r.UnionWith(iv.Points)
			} else {
				ranges[iv.Bar] = iv.Points.Clone()
			}
		}
		bars := make([]int, 0, len(ranges))
		for b := range ranges {
			bars = append(bars, b)
		}
		sort.Ints(bars)
		for i := 0; i < len(bars); i++ {
			for j := i + 1; j < len(bars); j++ {
				if intersects(ranges[bars[i]], ranges[bars[j]]) {
					addEdge(bars[i], bars[j])
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
				pt := fp.ID(blk.Index, i)
				for b, r := range ranges {
					if !r.Has(pt) {
						continue
					}
					for other := range usedTransitive(in.Callee, map[string]bool{}) {
						addEdge(b, other)
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
		for other := range used[bi.Fn.Name] {
			addEdge(bi.ID, other)
		}
		for other := range used[bi.Callee] {
			addEdge(bi.ID, other)
		}
	}

	// Greedy coloring in id order (creation order approximates program
	// order, which colors well for these nesting-structured ranges).
	assignment := make(map[int]int, n)
	allUsed := make(map[int]bool)
	for _, s := range used {
		for b := range s {
			allUsed[b] = true
		}
	}
	for b := 0; b < n; b++ {
		if !allUsed[b] {
			continue
		}
		taken := make([]bool, ir.NumBarrierRegs)
		for other := range interf[b] {
			if phys, ok := assignment[other]; ok {
				taken[phys] = true
			}
		}
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

func intersects(a, b dataflow.Bits) bool {
	for i := range a {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}
