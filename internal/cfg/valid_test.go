package cfg

import (
	"reflect"
	"testing"

	"specrecon/internal/ir"
	"specrecon/internal/rng"
)

// loopsByBackEdge is buildLoops as it was before the per-loop tables
// were cut from slabs — one Loop, one block set and one block list
// allocated per loop, headers found by scanning the loops so far — kept
// as the oracle. It reads only the dominators, RPO and Preds of info.
func loopsByBackEdge(info *Info) (loops []*Loop, loopOf []*Loop) {
	f := info.Fn
	var stack []*ir.Block
	for _, b := range info.RPO {
		for _, s := range b.Succs {
			if !info.Dominates(s, b) {
				continue
			}
			var l *Loop
			for _, seen := range loops {
				if seen.Header == s {
					l = seen
				}
			}
			if l == nil {
				l = &Loop{Header: s, blockSet: make([]bool, len(f.Blocks))}
				l.blockSet[s.Index] = true
				loops = append(loops, l)
			}
			stack = append(stack[:0], b)
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.blockSet[x.Index] {
					continue
				}
				l.blockSet[x.Index] = true
				for _, p := range info.Preds[x.Index] {
					if info.Reachable(p) {
						stack = append(stack, p)
					}
				}
			}
		}
	}
	for _, l := range loops {
		for idx, in := range l.blockSet {
			if in {
				l.Blocks = append(l.Blocks, f.Blocks[idx])
			}
		}
	}
	for _, a := range loops {
		for _, b := range loops {
			if a == b || !b.Contains(a.Header) {
				continue
			}
			if a.Parent == nil || len(b.Blocks) < len(a.Parent.Blocks) {
				a.Parent = b
			}
		}
	}
	for _, l := range loops {
		l.Depth = 1
		for p := l.Parent; p != nil; p = p.Parent {
			l.Depth++
		}
	}
	loopOf = make([]*Loop, len(f.Blocks))
	for _, l := range loops {
		for _, b := range l.Blocks {
			if cur := loopOf[b.Index]; cur == nil || l.Depth > cur.Depth {
				loopOf[b.Index] = l
			}
		}
	}
	return loops, loopOf
}

// TestLoopsMatchReference holds the slab-cut loop forest to the
// per-loop-allocating one on random graphs dense in back edges: same
// loops in the same order, same members, parents, depths and innermost
// loop per block.
func TestLoopsMatchReference(t *testing.T) {
	r := rng.New(99)
	withLoops := 0
	for trial := 0; trial < 400; trial++ {
		f := mkFunc(t, randomCFG(r, 3+r.Intn(14)))
		info := New(f)
		loops, loopOf := loopsByBackEdge(info)
		if len(loops) > 0 {
			withLoops++
		}
		if len(info.Loops) != len(loops) {
			t.Fatalf("trial %d: %d loops, reference finds %d\n%s", trial, len(info.Loops), len(loops), ir.PrintFunction(f))
		}
		// The two forests share no Loop, so parents and innermost loops
		// are compared by header.
		for i, l := range info.Loops {
			ref := loops[i]
			if l.Header != ref.Header || l.Depth != ref.Depth ||
				!reflect.DeepEqual(l.Blocks, ref.Blocks) || !reflect.DeepEqual(l.blockSet, ref.blockSet) ||
				(l.Parent == nil) != (ref.Parent == nil) || (l.Parent != nil && l.Parent.Header != ref.Parent.Header) {
				t.Fatalf("trial %d: loop %d headed by %s differs from the reference\n%s", trial, i, l.Header.Name, ir.PrintFunction(f))
			}
		}
		for i, l := range info.loopOf {
			if (l == nil) != (loopOf[i] == nil) || (l != nil && l.Header != loopOf[i].Header) {
				t.Fatalf("trial %d: innermost loop of %s differs from the reference\n%s", trial, f.Blocks[i].Name, ir.PrintFunction(f))
			}
		}
	}
	if withLoops < 100 {
		t.Fatalf("only %d of 400 random graphs had a loop: the comparison is nearly vacuous", withLoops)
	}
}

// TestValidSeesEveryGraphEdit: an Info stays Valid under what leaves the
// graph alone (instruction edits, Reindex) and stops being Valid under
// every edit to the block list, a block's index or a successor edge —
// including the two a flat edge list would miss: an edge moved between
// neighbouring blocks, and a block swapped for a fresh one.
func TestValidSeesEveryGraphEdit(t *testing.T) {
	build := func() (*ir.Function, *Info) {
		// 0 -> 1,2; 1 -> 3; 2 -> 3,4; 3 -> 1,4; 4 exit
		f := mkFunc(t, [][]int{{1, 2}, {3}, {3, 4}, {1, 4}, {}})
		return f, New(f)
	}
	f, info := build()
	if !info.Valid() {
		t.Fatal("a fresh Info is not Valid")
	}
	f.Blocks[1].InsertTop(ir.Instr{Op: ir.OpJoin, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg})
	f.Reindex()
	if !info.Valid() {
		t.Fatal("inserting an instruction and reindexing invalidated the Info")
	}
	edits := map[string]func(f *ir.Function){
		"retarget an edge":     func(f *ir.Function) { f.Blocks[1].Succs[0] = f.Blocks[4] },
		"swap a branch's arms": func(f *ir.Function) { s := f.Blocks[2].Succs; s[0], s[1] = s[1], s[0] },
		"drop an edge":         func(f *ir.Function) { f.Blocks[2].Succs = f.Blocks[2].Succs[:1] },
		"add an edge":          func(f *ir.Function) { f.Blocks[1].Succs = append(f.Blocks[1].Succs, f.Blocks[4]) },
		"move an edge to the next block": func(f *ir.Function) {
			// Blocks 2 and 3 have (3,4) and (1,4); afterwards (3) and
			// (4,1,4): the concatenated successor lists read the same.
			f.Blocks[2].Succs = []*ir.Block{f.Blocks[3]}
			f.Blocks[3].Succs = []*ir.Block{f.Blocks[4], f.Blocks[1], f.Blocks[4]}
		},
		"a nil successor": func(f *ir.Function) { f.Blocks[1].Succs[0] = nil },
		"append a block":  func(f *ir.Function) { f.NewBlock("extra") },
		"drop a block":    func(f *ir.Function) { f.Blocks = f.Blocks[:4] },
		"reorder blocks":  func(f *ir.Function) { b := f.Blocks; b[1], b[2] = b[2], b[1]; f.Reindex() },
		"a stale index":   func(f *ir.Function) { f.Blocks[3].Index = 1 },
		"swap in a new block": func(f *ir.Function) {
			old := f.Blocks[4]
			f.Blocks[4] = &ir.Block{Name: old.Name, Index: 4, Instrs: old.Instrs}
		},
	}
	for name, edit := range edits {
		f, info := build()
		edit(f)
		if info.Valid() {
			t.Errorf("%s: the Info still claims to be Valid", name)
		}
	}
}
