package dataflow

import (
	"cmp"
	"slices"

	"specrecon/internal/cfg"
	"specrecon/internal/ir"
)

// Barrier live intervals, paper section 4.3. "A barrier live range
// extends from the moment threads join the barrier until the barrier is
// cleared either by waiting or exiting threads. ... Two barriers are
// said to be conflicting if their live ranges overlap in a
// non-inclusive manner, i.e. neither one is a complete subset of the
// other."
//
// JoinedIntervals computes, at instruction granularity, the set of
// program points at which each barrier is joined-and-not-yet-cleared
// (the joined-barrier analysis of equation 1 with cancels included as
// clears, refined within blocks), and splits each barrier's point set
// into connected live intervals (Figure 5 reasons about b0's two
// separate intervals, not their union). Conflict detection and barrier
// register allocation are both built on these intervals.

// FuncPoints flattens a function's instruction positions into dense ids.
type FuncPoints struct {
	F      *ir.Function
	Offset []int // Offset[b] = first point id of block b
	Total  int
}

// NewFuncPoints numbers every instruction of f, in s.
func NewFuncPoints(s *Scratch, f *ir.Function) FuncPoints {
	fp := FuncPoints{F: f, Offset: cut(&s.ints, len(f.Blocks))}
	n := 0
	for i, b := range f.Blocks {
		fp.Offset[i] = n
		n += len(b.Instrs)
	}
	fp.Total = n
	return fp
}

// ID returns the dense point id of instruction instr of block block.
func (fp *FuncPoints) ID(block, instr int) int { return fp.Offset[block] + instr }

// Interval is one connected component of a barrier's joined range.
type Interval struct {
	Bar    int
	Points Bits // over FuncPoints ids
}

// JoinedIntervals computes the live intervals of every barrier in f, in
// s.
func JoinedIntervals(s *Scratch, f *ir.Function, info *cfg.Info) ([]Interval, FuncPoints) {
	at := JoinedAt(s, f, JoinedBarriers(s, f, info, true), true)
	fp := at.FuncPoints

	// joined holds one row of fp.Total bits per barrier.
	nb, w := NumBarriers(f), (fp.Total+63)/64
	joined := cut(&s.words, nb*w)
	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			at.Before(blk.Index, i).ForEach(func(b int) {
				joined[b*w:].Set(fp.ID(blk.Index, i))
			})
		}
	}

	start, stack := len(s.intervals), cut(&s.ints, fp.Total)
	for b := 0; b < nb; b++ {
		splitComponents(s, info, fp, b, joined[b*w:(b+1)*w], stack[:0])
	}
	return s.intervals[start:len(s.intervals):len(s.intervals)], fp
}

// splitComponents partitions one barrier's joined points, pts, into
// connected components, appended to s.intervals in the order of their
// lowest points, and empties pts. Adjacency follows execution order:
// consecutive instructions within a block, and a block's final point to
// each successor's first point (info.Preds gives the other direction).
// stack has room for every point, since a point leaves pts as it is
// pushed.
func splitComponents(s *Scratch, info *cfg.Info, fp FuncPoints, bar int, pts Bits, stack []int) {
	visit := func(q int) {
		if pts.Has(q) {
			pts.Clear(q)
			stack = append(stack, q)
		}
	}
	pts.ForEach(func(start int) {
		if !pts.Has(start) {
			return // reached from a lower point
		}
		comp := cut(&s.words, len(pts))
		visit(start)
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp.Set(p)
			// The block holding p is the last one starting at or before it.
			blk, _ := slices.BinarySearch(fp.Offset, p+1)
			blk--
			idx, b := p-fp.Offset[blk], fp.F.Blocks[blk]
			if idx+1 < len(b.Instrs) {
				visit(p + 1)
			} else {
				for _, sb := range b.Succs {
					if len(sb.Instrs) > 0 {
						visit(fp.ID(sb.Index, 0))
					}
				}
			}
			if idx > 0 {
				visit(p - 1)
			} else {
				for _, pb := range info.Preds[blk] {
					if len(pb.Instrs) > 0 {
						visit(fp.ID(pb.Index, len(pb.Instrs)-1))
					}
				}
			}
		}
		s.intervals = append(s.intervals, Interval{Bar: bar, Points: comp})
	})
}

// FindConflicts returns the conflicting barrier pairs {spec, other} in f
// where spec is one of the given speculative barriers — each pair once,
// sorted by spec, then other, so that what callers emit per pair never
// depends on map iteration order. A pair of two speculative barriers
// appears from both sides. info must be current for f; the intervals are
// built in s.
func FindConflicts(s *Scratch, f *ir.Function, info *cfg.Info, specBars map[int]bool) [][2]int {
	intervals, _ := JoinedIntervals(s, f, info)

	var pairs [][2]int
	for i := 0; i < len(intervals); i++ {
		for j := i + 1; j < len(intervals); j++ {
			a, b := intervals[i], intervals[j]
			if a.Bar == b.Bar {
				continue
			}
			aSpec, bSpec := specBars[a.Bar], specBars[b.Bar]
			if !aSpec && !bSpec {
				continue
			}
			if !OverlapNonInclusive(a.Points, b.Points) {
				continue
			}
			if aSpec {
				pairs = append(pairs, [2]int{a.Bar, b.Bar})
			}
			if bSpec {
				pairs = append(pairs, [2]int{b.Bar, a.Bar})
			}
		}
	}
	slices.SortFunc(pairs, func(x, y [2]int) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
	})
	return slices.Compact(pairs)
}

// OverlapNonInclusive reports whether the two point sets intersect with
// neither containing the other — the section-4.3 conflict predicate.
func OverlapNonInclusive(a, b Bits) bool {
	anyInter := false
	aInB, bInA := true, true
	for i := range a {
		if a[i]&b[i] != 0 {
			anyInter = true
		}
		if a[i]&^b[i] != 0 {
			aInB = false
		}
		if b[i]&^a[i] != 0 {
			bInA = false
		}
	}
	return anyInter && !aInB && !bInA
}
