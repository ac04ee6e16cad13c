package cfg

import (
	"reflect"
	"testing"

	"specrecon/internal/ir"
	"specrecon/internal/rng"
)

// mkFunc builds a function from an adjacency list. Block i gets name
// b<i>; blocks with no successors exit, one successor br, two cbr.
func mkFunc(t testing.TB, adj [][]int) *ir.Function {
	t.Helper()
	m := ir.NewModule("t")
	f := m.NewFunction("kernel")
	f.NRegs = 1
	for i := range adj {
		f.NewBlock(blockName(i))
	}
	for i, succs := range adj {
		b := f.Blocks[i]
		switch len(succs) {
		case 0:
			b.Instrs = []ir.Instr{{Op: ir.OpExit, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg}}
		case 1:
			b.Instrs = []ir.Instr{{Op: ir.OpBr, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg}}
			b.Succs = []*ir.Block{f.Blocks[succs[0]]}
		case 2:
			b.Instrs = []ir.Instr{
				{Op: ir.OpTid, Dst: 0, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg},
				{Op: ir.OpCBr, Dst: ir.NoReg, A: 0, B: ir.NoReg, C: ir.NoReg},
			}
			b.Succs = []*ir.Block{f.Blocks[succs[0]], f.Blocks[succs[1]]}
		default:
			t.Fatalf("mkFunc: block %d has %d successors", i, len(succs))
		}
	}
	if err := ir.VerifyFunction(f); err != nil {
		t.Fatalf("mkFunc produced invalid function: %v", err)
	}
	return f
}

func blockName(i int) string {
	return "b" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// bruteDominates: a dominates b iff b is unreachable from entry when a is
// removed (and both reachable).
func bruteDominates(f *ir.Function, a, b *ir.Block) bool {
	if a == b {
		return true
	}
	seen := make(map[*ir.Block]bool)
	var stack []*ir.Block
	if f.Entry() != a {
		stack = append(stack, f.Entry())
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[x] || x == a {
			continue
		}
		seen[x] = true
		for _, s := range x.Succs {
			stack = append(stack, s)
		}
	}
	return !seen[b]
}

// brutePostDominates: a post-dominates b iff no exit is reachable from b
// when a is removed.
func brutePostDominates(f *ir.Function, a, b *ir.Block) bool {
	if a == b {
		return true
	}
	seen := make(map[*ir.Block]bool)
	stack := []*ir.Block{b}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[x] || x == a {
			continue
		}
		seen[x] = true
		if len(x.Succs) == 0 {
			return false // reached an exit avoiding a
		}
		for _, s := range x.Succs {
			stack = append(stack, s)
		}
	}
	return true
}

func TestDominatorsDiamond(t *testing.T) {
	// 0 -> 1,2 -> 3
	f := mkFunc(t, [][]int{{1, 2}, {3}, {3}, {}})
	info := New(f, nil)
	if info.Idom(f.Blocks[3]) != f.Blocks[0] {
		t.Errorf("idom(merge) = %v, want entry", info.Idom(f.Blocks[3]))
	}
	if !info.Dominates(f.Blocks[0], f.Blocks[3]) {
		t.Error("entry should dominate merge")
	}
	if info.Dominates(f.Blocks[1], f.Blocks[3]) {
		t.Error("then-side must not dominate merge")
	}
	if info.Ipdom(f.Blocks[0]) != f.Blocks[3] {
		t.Errorf("ipdom(entry) = %v, want merge", info.Ipdom(f.Blocks[0]))
	}
	if !info.PostDominates(f.Blocks[3], f.Blocks[1]) {
		t.Error("merge should post-dominate then-side")
	}
}

func TestLoopDetection(t *testing.T) {
	// 0 -> 1 (preheader) -> 2 (header) -> 3 (body) -> 2; 2 -> 4 (exit)
	f := mkFunc(t, [][]int{{1}, {2}, {3, 4}, {2}, {}})
	info := New(f, nil)
	if len(info.Loops) != 1 {
		t.Fatalf("want 1 loop, got %d", len(info.Loops))
	}
	l := info.Loops[0]
	if l.Header != f.Blocks[2] {
		t.Errorf("loop header = %v, want b02", l.Header.Name)
	}
	if !l.Contains(f.Blocks[3]) || l.Contains(f.Blocks[4]) || l.Contains(f.Blocks[1]) {
		t.Errorf("loop body wrong: %v", l.Blocks)
	}
	if ph := l.Preheader(info); ph != f.Blocks[1] {
		t.Errorf("preheader = %v, want b01", ph)
	}
	if l.Depth != 1 {
		t.Errorf("depth = %d, want 1", l.Depth)
	}
}

func TestNestedLoops(t *testing.T) {
	// 0 -> 1(outer hdr) -> 2(inner pre) -> 3(inner hdr) -> 4(inner body) -> 3
	// 3 -> 5(outer latch) -> 1 ; 1 -> 6(exit)
	f := mkFunc(t, [][]int{{1}, {2, 6}, {3}, {4, 5}, {3}, {1}, {}})
	info := New(f, nil)
	if len(info.Loops) != 2 {
		t.Fatalf("want 2 loops, got %d", len(info.Loops))
	}
	var inner, outer *Loop
	for _, l := range info.Loops {
		if l.Header == f.Blocks[3] {
			inner = l
		}
		if l.Header == f.Blocks[1] {
			outer = l
		}
	}
	if inner == nil || outer == nil {
		t.Fatal("loops not identified by header")
	}
	if inner.Parent != outer {
		t.Errorf("inner.Parent = %v, want outer", inner.Parent)
	}
	if inner.Depth != 2 || outer.Depth != 1 {
		t.Errorf("depths = %d/%d, want 2/1", inner.Depth, outer.Depth)
	}
	if got := info.LoopOf(f.Blocks[4]); got != inner {
		t.Errorf("LoopOf(inner body) = %v, want inner", got)
	}
	if got := info.LoopOf(f.Blocks[2]); got != outer {
		t.Errorf("LoopOf(inner preheader) = %v, want outer", got)
	}
	if ph := inner.Preheader(info); ph != f.Blocks[2] {
		t.Errorf("inner preheader = %v", ph)
	}
}

// randomCFG generates a connected-ish random digraph with a single entry.
func randomCFG(r *rng.Source, n int) [][]int {
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		// Ensure progress: mostly forward edges, occasional back edges,
		// some exits.
		switch r.Intn(10) {
		case 0:
			adj[i] = nil // exit block
		case 1, 2, 3:
			adj[i] = []int{r.Intn(n)}
		default:
			adj[i] = []int{r.Intn(n), r.Intn(n)}
		}
	}
	// Make the last block an exit so at least one exit exists, and give
	// the entry a successor.
	adj[n-1] = nil
	if len(adj[0]) == 0 {
		adj[0] = []int{n - 1}
	}
	return adj
}

// TestDominatorsAgainstBruteForce cross-checks the CHK dominator and
// post-dominator trees against reachability-based oracles on random
// graphs (a property-based test).
func TestDominatorsAgainstBruteForce(t *testing.T) {
	r := rng.New(1234)
	for trial := 0; trial < 60; trial++ {
		n := 4 + r.Intn(10)
		f := mkFunc(t, randomCFG(r, n))
		info := New(f, nil)
		for _, a := range f.Blocks {
			for _, b := range f.Blocks {
				if !info.Reachable(a) || !info.Reachable(b) {
					continue
				}
				want := bruteDominates(f, a, b)
				got := info.Dominates(a, b)
				if got != want {
					t.Fatalf("trial %d: Dominates(%s,%s) = %v, want %v\n%s",
						trial, a.Name, b.Name, got, want, ir.PrintFunction(f))
				}
			}
		}
		// Post-dominance oracle: only check blocks that can reach an
		// exit (others have undefined ipdom by convention).
		for _, a := range f.Blocks {
			for _, b := range f.Blocks {
				if !info.Reachable(a) || !info.Reachable(b) {
					continue
				}
				if !canReachExit(f, b) || !canReachExit(f, a) {
					continue
				}
				want := brutePostDominates(f, a, b)
				got := info.PostDominates(a, b)
				if got != want {
					t.Fatalf("trial %d: PostDominates(%s,%s) = %v, want %v\n%s",
						trial, a.Name, b.Name, got, want, ir.PrintFunction(f))
				}
			}
		}
	}
}

func canReachExit(f *ir.Function, b *ir.Block) bool {
	seen := make(map[*ir.Block]bool)
	stack := []*ir.Block{b}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[x] {
			continue
		}
		seen[x] = true
		if len(x.Succs) == 0 {
			return true
		}
		for _, s := range x.Succs {
			stack = append(stack, s)
		}
	}
	return false
}

// TestIpdomIsNearest verifies the immediate post-dominator is the
// nearest strict post-dominator on random graphs.
func TestIpdomIsNearest(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 40; trial++ {
		n := 4 + r.Intn(8)
		f := mkFunc(t, randomCFG(r, n))
		info := New(f, nil)
		for _, b := range f.Blocks {
			if !info.Reachable(b) || !canReachExit(f, b) {
				continue
			}
			ip := info.Ipdom(b)
			if ip == nil {
				continue // post-dominated straight by the virtual exit
			}
			if ip == b {
				t.Fatalf("ipdom(%s) = itself", b.Name)
			}
			if !brutePostDominates(f, ip, b) {
				t.Fatalf("ipdom(%s)=%s is not a post-dominator\n%s", b.Name, ip.Name, ir.PrintFunction(f))
			}
			// Every other strict post-dominator of b must post-dominate ip.
			for _, c := range f.Blocks {
				if c == b || c == ip || !info.Reachable(c) || !canReachExit(f, c) {
					continue
				}
				if brutePostDominates(f, c, b) && !brutePostDominates(f, c, ip) {
					t.Fatalf("%s postdominates %s but not its ipdom %s\n%s", c.Name, b.Name, ip.Name, ir.PrintFunction(f))
				}
			}
		}
	}
}

func TestReachability(t *testing.T) {
	f := mkFunc(t, [][]int{{1, 2}, {3}, {3}, {}})
	info := New(f, nil)
	from := ReachableFrom(f, f.Blocks[1])
	if !from[1] || !from[3] || from[0] || from[2] {
		t.Errorf("ReachableFrom(b1) = %v", from)
	}
	to := CanReach(f, info, f.Blocks[3])
	if !to[0] || !to[1] || !to[2] || !to[3] {
		t.Errorf("CanReach(merge) = %v", to)
	}
}

func TestCommonPostDominator(t *testing.T) {
	// diamond into a tail: 0 -> 1,2 -> 3 -> 4
	f := mkFunc(t, [][]int{{1, 2}, {3}, {3}, {4}, {}})
	info := New(f, nil)
	got := info.CommonPostDominator([]*ir.Block{f.Blocks[1], f.Blocks[2]})
	if got != f.Blocks[3] {
		t.Errorf("CommonPostDominator = %v, want b03", got)
	}
	got = info.CommonPostDominator([]*ir.Block{f.Blocks[0], f.Blocks[3]})
	if got != f.Blocks[3] {
		t.Errorf("CommonPostDominator(entry, b3) = %v, want b03", got)
	}
}

// TestNewIntoRetiredIsNew builds random graphs of 2 to 40 blocks, each
// into the storage of the Info retired from the one before, and holds
// every rebuild to New into new storage field by field
// (reflect.DeepEqual walks the unexported tables and the loop forest
// too). Retire must leave no block of the graph in the storage it
// keeps.
func TestNewIntoRetiredIsNew(t *testing.T) {
	r := rng.New(7)
	var kept *Info
	for trial := 0; trial < 200; trial++ {
		f := mkFunc(t, randomCFG(r, 2+r.Intn(39)))
		kept = New(f, kept)
		if fresh := New(f, nil); !reflect.DeepEqual(kept, fresh) {
			t.Fatalf("trial %d: rebuilt into retired storage, the analyses of\n%s differ from a new build", trial, ir.PrintFunction(f))
		}
		kept.Retire()
		for _, blocks := range [][]*ir.Block{kept.ptrs, kept.RPO, kept.members} {
			for _, b := range blocks[:cap(blocks)] {
				if b != nil {
					t.Fatalf("trial %d: a retired Info still holds block %s", trial, b.Name)
				}
			}
		}
		for _, preds := range kept.Preds[:cap(kept.Preds)] {
			if preds != nil {
				t.Fatalf("trial %d: a retired Info still holds a predecessor list", trial)
			}
		}
		for _, l := range kept.loops[:cap(kept.loops)] {
			if l.Header != nil || l.Blocks != nil {
				t.Fatalf("trial %d: a retired Info still holds loop %s", trial, l.Header.Name)
			}
		}
		if kept.Fn != nil {
			t.Fatalf("trial %d: a retired Info still holds its function", trial)
		}
	}
}
