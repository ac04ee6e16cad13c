// Package cfg computes control-flow-graph analyses over ir.Functions:
// predecessors, reverse postorder, dominator and post-dominator trees
// (Cooper–Harvey–Kennedy "a simple, fast dominance algorithm"), natural
// loops with a nesting forest, and reachability sets. These are the
// substrate for the dataflow analyses of internal/dataflow and the
// synchronization-insertion passes of internal/core.
package cfg

import (
	"specrecon/internal/ir"
)

// Info holds every CFG analysis for one function. Build it with New; it
// becomes stale as soon as the function's blocks or edges change.
type Info struct {
	Fn *ir.Function

	// Preds[i] lists the predecessors of block i.
	Preds [][]*ir.Block

	// RPO is the blocks reachable from entry in reverse postorder.
	RPO []*ir.Block

	// rpoNum[i] is block i's position in RPO, or -1 if unreachable.
	rpoNum []int

	// idom[i] is the immediate dominator of block i (entry's idom is
	// itself); -1 for unreachable blocks.
	idom []int

	// ipdom[i] is the immediate post-dominator of block i; virtualExit
	// when the block post-dominates to the exit, -1 when the block
	// cannot reach any exit (e.g. an infinite loop).
	ipdom []int

	// Loops holds the natural loops, outermost first.
	Loops []*Loop

	// loopOf[i] is the innermost loop containing block i, or nil.
	loopOf []*Loop

	// blocks and succs are the graph New saw, for Valid: the block list,
	// and every block's successors in order, each run closed by a nil.
	blocks, succs []*ir.Block
}

// virtualExit is the pseudo block index used as the sink of the reversed
// CFG when computing post-dominators.
const virtualExit = -2

// Loop is a natural loop discovered from a back edge.
type Loop struct {
	Header *ir.Block
	// Blocks is the loop body including the header.
	Blocks []*ir.Block
	// Parent is the innermost enclosing loop, or nil.
	Parent *Loop
	// Depth is 1 for outermost loops.
	Depth int

	// blockSet[i] reports whether block i belongs to the body.
	blockSet []bool
}

// Contains reports whether b belongs to the loop body.
func (l *Loop) Contains(b *ir.Block) bool { return l.blockSet[b.Index] }

// Preheader returns the unique predecessor of the loop header outside the
// loop, or nil if the header has zero or several outside predecessors.
func (l *Loop) Preheader(info *Info) *ir.Block {
	var pre *ir.Block
	for _, p := range info.Preds[l.Header.Index] {
		if l.Contains(p) {
			continue
		}
		if pre != nil {
			return nil
		}
		pre = p
	}
	return pre
}

// New computes all analyses for f. The function must verify (in
// particular Block.Index must be consistent). Every per-block table is
// an index array cut from one slab per element type, and so is every
// per-loop table, so the cost in allocations grows with neither the
// block count nor the number of loops.
func New(f *ir.Function) *Info {
	n := len(f.Blocks)
	ints := make([]int, 5*n)
	cut := func() []int {
		row := ints[:n:n]
		ints = ints[n:]
		return row
	}
	info := &Info{
		Fn:     f,
		Preds:  make([][]*ir.Block, n),
		rpoNum: cut(),
		idom:   cut(),
		ipdom:  cut(),
		loopOf: make([]*Loop, n),
	}
	scratch := cut()
	info.buildPreds(scratch)
	visited := make([]bool, 2*n)
	info.buildRPO(visited[:n], scratch[:0])
	info.buildDominators()
	info.buildPostDominators(visited[n:], scratch[:0], cut())
	clear(visited[:n])
	info.buildLoops(visited[:n], scratch[:0])
	return info
}

// buildPreds fills Preds in the order a walk over every block's
// successors meets each edge, and the snapshot Valid compares, all from
// one slab sized by a counting pass (count is scratch).
func (info *Info) buildPreds(count []int) {
	f := info.Fn
	n, edges := len(f.Blocks), 0
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			count[s.Index]++
			edges++
		}
	}
	slab := make([]*ir.Block, 2*(n+edges))
	info.blocks, slab = slab[:n:n], slab[n:]
	copy(info.blocks, f.Blocks)
	info.succs, slab = slab[:0:n+edges], slab[n+edges:]
	for i, c := range count {
		info.Preds[i], slab = slab[:0:c], slab[c:]
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			info.Preds[s.Index] = append(info.Preds[s.Index], b)
		}
		info.succs = append(append(info.succs, b.Succs...), nil)
	}
}

// Valid reports whether the function still has the block list, block
// indices and successor edges New saw — everything the analyses are
// derived from — in O(blocks + edges) pointer compares.
func (info *Info) Valid() bool {
	if len(info.Fn.Blocks) != len(info.blocks) {
		return false
	}
	k := 0
	for i, b := range info.Fn.Blocks {
		if b != info.blocks[i] || b.Index != i {
			return false
		}
		for _, s := range b.Succs {
			if s == nil || info.succs[k] != s {
				return false
			}
			k++
		}
		if info.succs[k] != nil {
			return false
		}
		k++
	}
	return true
}

// postorder appends to order the indices of the unvisited blocks
// reachable from b — over successor edges, or over predecessor edges
// when reverse — in depth-first postorder.
func (info *Info) postorder(b *ir.Block, reverse bool, visited []bool, order []int) []int {
	visited[b.Index] = true
	next := b.Succs
	if reverse {
		next = info.Preds[b.Index]
	}
	for _, s := range next {
		if !visited[s.Index] {
			order = info.postorder(s, reverse, visited, order)
		}
	}
	return append(order, b.Index)
}

func (info *Info) buildRPO(visited []bool, post []int) {
	f := info.Fn
	post = info.postorder(f.Entry(), false, visited, post)
	info.RPO = make([]*ir.Block, len(post))
	for i := range info.rpoNum {
		info.rpoNum[i] = -1
	}
	for i, bi := range post {
		r := len(post) - 1 - i
		info.RPO[r] = f.Blocks[bi]
		info.rpoNum[bi] = r
	}
}

// Reachable reports whether b is reachable from the entry block.
func (info *Info) Reachable(b *ir.Block) bool { return info.rpoNum[b.Index] >= 0 }

// buildDominators runs the Cooper–Harvey–Kennedy iterative algorithm on
// the forward CFG.
func (info *Info) buildDominators() {
	for i := range info.idom {
		info.idom[i] = -1
	}
	entry := info.Fn.Entry()
	info.idom[entry.Index] = entry.Index

	intersect := func(a, b int) int {
		for a != b {
			for info.rpoNum[a] > info.rpoNum[b] {
				a = info.idom[a]
			}
			for info.rpoNum[b] > info.rpoNum[a] {
				b = info.idom[b]
			}
		}
		return a
	}

	changed := true
	for changed {
		changed = false
		for _, b := range info.RPO {
			if b == entry {
				continue
			}
			newIdom := -1
			for _, p := range info.Preds[b.Index] {
				if info.idom[p.Index] < 0 {
					continue // predecessor not yet processed / unreachable
				}
				if newIdom < 0 {
					newIdom = p.Index
				} else {
					newIdom = intersect(p.Index, newIdom)
				}
			}
			if newIdom >= 0 && info.idom[b.Index] != newIdom {
				info.idom[b.Index] = newIdom
				changed = true
			}
		}
	}
}

// buildPostDominators runs the same algorithm on the reversed CFG with a
// virtual exit joining every exit block (ret/exit terminators). visited,
// order and num are scratch of the block count.
func (info *Info) buildPostDominators(visited []bool, order, num []int) {
	f := info.Fn
	exits := func(i int) bool { return len(f.Blocks[i].Succs) == 0 }

	// Postorder of the reversed graph starting at the virtual exit is a
	// reverse DFS from all exit blocks over predecessor edges; num is a
	// block's position in it, -1 if no exit is reachable from the block.
	for _, b := range f.Blocks {
		if exits(b.Index) && !visited[b.Index] {
			order = info.postorder(b, true, visited, order)
		}
	}
	for i := range num {
		num[i] = -1
	}
	for i, bi := range order {
		num[bi] = i
	}

	ip := info.ipdom
	for i := range ip {
		ip[i] = -1
	}

	// The virtual exit has the highest RPO priority; represent it by
	// index -2 with rpo number len(order).
	rpoOf := func(i int) int {
		if i == virtualExit {
			return -1 // virtual exit is first in reverse-graph RPO
		}
		return len(order) - 1 - num[i]
	}
	idomOf := func(i int) int {
		if i == virtualExit {
			return virtualExit
		}
		return ip[i]
	}
	intersect := func(a, b int) int {
		for a != b {
			for rpoOf(a) > rpoOf(b) {
				a = idomOf(a)
			}
			for rpoOf(b) > rpoOf(a) {
				b = idomOf(b)
			}
		}
		return a
	}

	changed := true
	for changed {
		changed = false
		// Iterate blocks in reverse-graph RPO: highest postorder first.
		for i := len(order) - 1; i >= 0; i-- {
			bi := order[i]
			b := f.Blocks[bi]
			newIp := -1
			if exits(bi) {
				newIp = virtualExit
			}
			for _, s := range b.Succs {
				if num[s.Index] < 0 {
					continue // successor cannot reach an exit
				}
				if ip[s.Index] == -1 && !exits(s.Index) {
					continue // not yet processed
				}
				if newIp == -1 {
					newIp = s.Index
				} else {
					newIp = intersect(s.Index, newIp)
				}
			}
			if newIp != -1 && ip[bi] != newIp {
				ip[bi] = newIp
				changed = true
			}
		}
	}
}

// Idom returns the immediate dominator of b, or nil for the entry block
// and unreachable blocks.
func (info *Info) Idom(b *ir.Block) *ir.Block {
	i := info.idom[b.Index]
	if i < 0 || i == b.Index {
		return nil
	}
	return info.Fn.Blocks[i]
}

// Dominates reports whether a dominates b (reflexively).
func (info *Info) Dominates(a, b *ir.Block) bool {
	if !info.Reachable(a) || !info.Reachable(b) {
		return false
	}
	x := b.Index
	for {
		if x == a.Index {
			return true
		}
		next := info.idom[x]
		if next == x || next < 0 {
			return false
		}
		x = next
	}
}

// Ipdom returns the immediate post-dominator of b. It returns nil when b
// post-dominates straight to program exit (its ipdom is the virtual exit)
// or cannot reach an exit.
func (info *Info) Ipdom(b *ir.Block) *ir.Block {
	i := info.ipdom[b.Index]
	if i < 0 {
		return nil
	}
	return info.Fn.Blocks[i]
}

// PostDominates reports whether a post-dominates b (reflexively).
func (info *Info) PostDominates(a, b *ir.Block) bool {
	x := b.Index
	for {
		if x == a.Index {
			return true
		}
		next := info.ipdom[x]
		if next < 0 || next == x {
			return false
		}
		x = next
	}
}

// CommonPostDominator returns the nearest block that post-dominates every
// block in set, or nil if that is the virtual exit.
func (info *Info) CommonPostDominator(set []*ir.Block) *ir.Block {
	if len(set) == 0 {
		return nil
	}
	// Climb the post-dominator tree pairwise. Chain depth is used to
	// align the two walks.
	depth := func(i int) int {
		d := 0
		for i >= 0 {
			i = info.ipdom[i]
			d++
			if d > len(info.Fn.Blocks)+2 {
				break
			}
		}
		return d
	}
	cur := set[0].Index
	for _, b := range set[1:] {
		x, y := cur, b.Index
		dx, dy := depth(x), depth(y)
		for dx > dy {
			x = info.ipdom[x]
			dx--
		}
		for dy > dx {
			y = info.ipdom[y]
			dy--
		}
		for x != y {
			if x < 0 || y < 0 {
				return nil
			}
			x = info.ipdom[x]
			y = info.ipdom[y]
		}
		cur = x
		if cur < 0 {
			return nil
		}
	}
	if cur < 0 {
		return nil
	}
	return info.Fn.Blocks[cur]
}

// StrictIpdomOutside returns the nearest post-dominator of b that is NOT
// in the given set (used to find where a region re-converges).
func (info *Info) StrictIpdomOutside(b *ir.Block, inSet func(*ir.Block) bool) *ir.Block {
	i := info.ipdom[b.Index]
	for i >= 0 {
		blk := info.Fn.Blocks[i]
		if !inSet(blk) {
			return blk
		}
		i = info.ipdom[i]
	}
	return nil
}

// buildLoops finds natural loops from back edges (an edge t->h where h
// dominates t), merges loops sharing a header, and builds the nesting
// forest. The headers are counted first, so that the loop records, their
// block sets and their block lists are each cut from one slab; isHeader
// (all false) and stack are scratch.
func (info *Info) buildLoops(isHeader []bool, stack []int) {
	f := info.Fn
	n, nl := len(f.Blocks), 0
	backEdge := func(t, h *ir.Block) bool {
		return info.rpoNum[h.Index] <= info.rpoNum[t.Index] && info.Dominates(h, t)
	}
	for _, b := range info.RPO {
		for _, s := range b.Succs {
			if !isHeader[s.Index] && backEdge(b, s) {
				isHeader[s.Index] = true
				nl++
			}
		}
	}
	if nl == 0 {
		return
	}
	loops, sets, members := make([]Loop, 0, nl), make([]bool, nl*n), nl
	info.Loops = make([]*Loop, 0, nl)
	for _, b := range info.RPO {
		for _, s := range b.Succs {
			if !backEdge(b, s) {
				continue
			}
			// A header's innermost loop is the one it heads, so loopOf
			// already serves as the header-to-loop table here.
			l := info.loopOf[s.Index]
			if l == nil {
				loops = append(loops, Loop{Header: s, blockSet: sets[:n:n]})
				l, sets = &loops[len(loops)-1], sets[n:]
				l.blockSet[s.Index] = true
				info.Loops, info.loopOf[s.Index] = append(info.Loops, l), l
			}
			// Collect the natural loop of this back edge: all blocks
			// that reach t without passing through h.
			stack = append(stack[:0], b.Index)
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.blockSet[x] {
					continue
				}
				l.blockSet[x] = true
				members++
				for _, p := range info.Preds[x] {
					if info.Reachable(p) {
						stack = append(stack, p.Index)
					}
				}
			}
		}
	}
	slab := make([]*ir.Block, 0, members)
	for _, l := range info.Loops {
		start := len(slab)
		for idx, in := range l.blockSet {
			if in {
				slab = append(slab, f.Blocks[idx])
			}
		}
		l.Blocks = slab[start:len(slab):len(slab)]
	}
	// Nesting: loop A is inside loop B if B contains A's header and
	// A != B. Pick the smallest such B as parent.
	for _, a := range info.Loops {
		for _, b := range info.Loops {
			if a == b || !b.Contains(a.Header) {
				continue
			}
			if a.Parent == nil || len(b.Blocks) < len(a.Parent.Blocks) {
				a.Parent = b
			}
		}
	}
	for _, l := range info.Loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	// Innermost loop per block: among loops containing the block, the
	// one with the greatest depth.
	for _, l := range info.Loops {
		for _, b := range l.Blocks {
			cur := info.loopOf[b.Index]
			if cur == nil || l.Depth > cur.Depth {
				info.loopOf[b.Index] = l
			}
		}
	}
}

// LoopOf returns the innermost loop containing b, or nil.
func (info *Info) LoopOf(b *ir.Block) *Loop { return info.loopOf[b.Index] }

// ReachableFrom returns the set of blocks reachable from start (inclusive)
// as a bitset indexed by Block.Index.
func ReachableFrom(f *ir.Function, start *ir.Block) []bool {
	seen := make([]bool, len(f.Blocks))
	stack := []*ir.Block{start}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b.Index] {
			continue
		}
		seen[b.Index] = true
		for _, s := range b.Succs {
			stack = append(stack, s)
		}
	}
	return seen
}

// CanReach returns the set of blocks from which target is reachable
// (inclusive), as a bitset indexed by Block.Index.
func CanReach(f *ir.Function, info *Info, target *ir.Block) []bool {
	seen := make([]bool, len(f.Blocks))
	stack := []*ir.Block{target}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b.Index] {
			continue
		}
		seen[b.Index] = true
		for _, p := range info.Preds[b.Index] {
			stack = append(stack, p)
		}
	}
	return seen
}
