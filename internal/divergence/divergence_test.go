package divergence

import (
	"slices"
	"testing"

	"specrecon/internal/cfg"
	"specrecon/internal/ir"
)

func analyze(t *testing.T, m *ir.Module) (*ir.Function, *Info) {
	t.Helper()
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("module invalid: %v", err)
	}
	f := m.Funcs[len(m.Funcs)-1]
	info := cfg.New(f)
	return f, Analyze(m, f, info)
}

func TestUniformValuesStayUniform(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunction("k")
	b := ir.NewBuilder(f)
	e := f.NewBlock("e")
	done := f.NewBlock("done")
	b.SetBlock(e)
	c1 := b.Const(5)
	c2 := b.AddI(c1, 3)
	n := b.NumThreads()
	sum := b.Add(c2, n)
	cond := b.SetLT(sum, c1)
	b.CBr(cond, done, done)
	b.SetBlock(done)
	b.Exit()

	_, d := analyze(t, m)
	for _, r := range []ir.Reg{c1, c2, n, sum, cond} {
		if d.DivergentInt[r] {
			t.Errorf("r%d should be uniform", r)
		}
	}
	if d.DivergentBranch[e.Index] {
		t.Error("branch on uniform value flagged divergent")
	}
}

func TestTidPropagates(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunction("k")
	b := ir.NewBuilder(f)
	e := f.NewBlock("e")
	thn := f.NewBlock("thn")
	els := f.NewBlock("els")
	b.SetBlock(e)
	tid := b.Tid()
	x := b.MulI(tid, 2)
	y := b.AddI(x, 1)
	cond := b.SetLTI(y, 10)
	b.CBr(cond, thn, els)
	b.SetBlock(thn)
	b.Exit()
	b.SetBlock(els)
	b.Exit()

	_, d := analyze(t, m)
	for _, r := range []ir.Reg{tid, x, y, cond} {
		if !d.DivergentInt[r] {
			t.Errorf("r%d should be divergent", r)
		}
	}
	if !d.DivergentBranch[e.Index] {
		t.Error("branch on tid-derived value not flagged divergent")
	}
}

func TestRandIsDivergent(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunction("k")
	b := ir.NewBuilder(f)
	e := f.NewBlock("e")
	a := f.NewBlock("a")
	z := f.NewBlock("z")
	b.SetBlock(e)
	r := b.FRand()
	cond := b.FSetLTI(r, 0.5)
	b.CBr(cond, a, z)
	b.SetBlock(a)
	b.Exit()
	b.SetBlock(z)
	b.Exit()

	_, d := analyze(t, m)
	if !d.DivergentFloat[r] || !d.DivergentInt[cond] {
		t.Error("rand-derived values should be divergent")
	}
	if !d.DivergentBranch[e.Index] {
		t.Error("rand branch should be divergent")
	}
}

func TestLoadDivergenceFollowsAddress(t *testing.T) {
	m := ir.NewModule("t")
	m.MemWords = 64
	f := m.NewFunction("k")
	b := ir.NewBuilder(f)
	e := f.NewBlock("e")
	b.SetBlock(e)
	uaddr := b.Const(8)
	uval := b.Load(uaddr, 0) // uniform address -> uniform
	tid := b.Tid()
	dval := b.Load(tid, 0) // divergent address -> divergent
	_ = uval
	_ = dval
	b.Exit()

	_, d := analyze(t, m)
	if d.DivergentInt[uval] {
		t.Error("load from uniform address should be uniform")
	}
	if !d.DivergentInt[dval] {
		t.Error("load from divergent address should be divergent")
	}
}

func TestSyncDependence(t *testing.T) {
	// A register assigned under a divergent branch becomes divergent
	// even if its inputs are uniform (control dependence).
	m := ir.NewModule("t")
	f := m.NewFunction("k")
	b := ir.NewBuilder(f)
	e := f.NewBlock("e")
	thn := f.NewBlock("thn")
	merge := f.NewBlock("merge")
	b.SetBlock(e)
	tid := b.Tid()
	x := b.Reg()
	b.ConstTo(x, 1)
	cond := b.AndI(tid, 1)
	b.CBr(cond, thn, merge)
	b.SetBlock(thn)
	b.ConstTo(x, 2) // uniform constant, but divergently executed
	b.Br(merge)
	b.SetBlock(merge)
	y := b.AddI(x, 0)
	_ = y
	b.Exit()

	_, d := analyze(t, m)
	if !d.DivergentBlock[thn.Index] {
		t.Error("then-block should be marked divergently executed")
	}
	if !d.DivergentInt[x] {
		t.Error("register written under divergent control should be divergent")
	}
}

func TestCalleeWithRootsClobbers(t *testing.T) {
	m := ir.NewModule("t")
	callee := m.NewFunction("noise")
	{
		cb := ir.NewBuilder(callee)
		blk := callee.NewBlock("c")
		cb.SetBlock(blk)
		r := cb.Rand()
		cb.MovTo(ir.Reg(0), r)
		cb.Ret()
	}
	f := m.NewFunction("k")
	b := ir.NewBuilder(f)
	e := f.NewBlock("e")
	a := f.NewBlock("a")
	z := f.NewBlock("z")
	b.SetBlock(e)
	// Reserve r0 as the callee's result register.
	r0 := b.Reg()
	b.ConstTo(r0, 0)
	b.Call("noise")
	cond := b.SetGTI(r0, 100)
	b.CBr(cond, a, z)
	b.SetBlock(a)
	b.Exit()
	b.SetBlock(z)
	b.Exit()

	_, d := analyze(t, m)
	if !d.DivergentInt[r0] {
		t.Error("register clobbered by a divergence-rooted callee should be divergent")
	}
	if !d.DivergentBranch[e.Index] {
		t.Error("branch on callee result should be divergent")
	}
}

func TestDivergentBlockRegion(t *testing.T) {
	// Divergent blocks are those between the branch and its ipdom.
	m := ir.NewModule("t")
	f := m.NewFunction("k")
	b := ir.NewBuilder(f)
	e := f.NewBlock("e")
	thn := f.NewBlock("thn")
	els := f.NewBlock("els")
	merge := f.NewBlock("merge")
	tail := f.NewBlock("tail")
	b.SetBlock(e)
	tid := b.Tid()
	b.CBr(b.AndI(tid, 1), thn, els)
	b.SetBlock(thn)
	b.Br(merge)
	b.SetBlock(els)
	b.Br(merge)
	b.SetBlock(merge)
	b.Br(tail)
	b.SetBlock(tail)
	b.Exit()

	_, d := analyze(t, m)
	if !d.DivergentBlock[thn.Index] || !d.DivergentBlock[els.Index] {
		t.Error("branch sides should be divergent blocks")
	}
	if d.DivergentBlock[merge.Index] || d.DivergentBlock[tail.Index] {
		t.Error("post-dominator and beyond should not be divergent blocks")
	}
}

// calleeRootsByPaths is the per-function, path-exploring search that
// CalleeRoots replaced (Analyze ran it for every function of the module
// on every call); kept as the oracle.
func calleeRootsByPaths(m *ir.Module, fn *ir.Function, visiting map[string]bool) bool {
	if visiting[fn.Name] {
		return false
	}
	visiting[fn.Name] = true
	defer delete(visiting, fn.Name)
	for _, b := range fn.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op.IsDivergenceSource() || in.Op == ir.OpAtomAdd || in.Op == ir.OpFAtomAdd {
				return true
			}
			if in.Op == ir.OpCall {
				if callee := m.FuncByName(in.Callee); callee != nil && calleeRootsByPaths(m, callee, visiting) {
					return true
				}
			}
		}
	}
	return false
}

// TestCalleeRootsThroughCycles pins the module-level callee-roots set: a
// root reached only through a callee marks every caller up the chain,
// functions on a recursive cycle are marked when the cycle reaches a
// root and stay unmarked (and terminate) when it does not, and a call
// out of the module marks nothing.
func TestCalleeRootsThroughCycles(t *testing.T) {
	m := ir.NewModule("t")
	calls := func(name string, callees ...string) {
		f := m.NewFunction(name)
		b := ir.NewBuilder(f)
		b.SetBlock(f.NewBlock("c"))
		for _, c := range callees {
			b.Call(c)
		}
		b.Ret()
	}
	leaf := m.NewFunction("leaf")
	{
		b := ir.NewBuilder(leaf)
		b.SetBlock(leaf.NewBlock("c"))
		b.MovTo(ir.Reg(0), b.Rand())
		b.Ret()
	}
	calls("ping", "pong")
	calls("pong", "ping", "leaf")
	calls("quiet", "quiet2", "elsewhere")
	calls("quiet2", "quiet")
	calls("k", "quiet", "ping")
	calls("calm", "quiet")

	roots := CalleeRoots(m)
	want := map[string]bool{"leaf": true, "ping": true, "pong": true, "k": true}
	for _, f := range m.Funcs {
		got := slices.Contains(roots, f.Name)
		if got != want[f.Name] {
			t.Errorf("%s in CalleeRoots: %v, want %v", f.Name, got, want[f.Name])
		}
		if old := calleeRootsByPaths(m, f, map[string]bool{}); got != old {
			t.Errorf("%s in CalleeRoots: %v, the path search says %v", f.Name, got, old)
		}
	}
	if len(CalleeRoots(nil)) != 0 {
		t.Error("a nil module has no callee roots")
	}

	// The set is what Analyze consults at a call: r0 survives a call
	// into the rootless cycle and is clobbered by one whose root sits
	// two calls down.
	for _, tc := range []struct {
		callee    string
		divergent bool
	}{{"quiet", false}, {"ping", true}} {
		f := m.NewFunction("caller_" + tc.callee)
		b := ir.NewBuilder(f)
		b.SetBlock(f.NewBlock("e"))
		r0 := b.Reg()
		b.ConstTo(r0, 0)
		b.Call(tc.callee)
		b.Exit()
		if d := Analyze(m, f, cfg.New(f)); d.DivergentInt[r0] != tc.divergent {
			t.Errorf("r0 after call %s: divergent = %v, want %v", tc.callee, d.DivergentInt[r0], tc.divergent)
		}
	}
}
