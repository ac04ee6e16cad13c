// Package corpus generates the synthetic application population behind
// the paper's section 5.4 study: "Of the 520 CUDA applications we
// studied, 75 had a SIMT efficiency of less than about 80%. Our
// implementation detected non-trivial opportunity in 16 applications, and
// 5 showed significant improvement in SIMT efficiency and runtime."
//
// We cannot ship NVIDIA's internal application database, so we synthesize
// a 520-kernel population whose composition mirrors the paper's
// observation that "divergent workloads form a small fraction of GPU
// applications": most kernels are uniform (dense linear algebra style,
// stencil style, streaming style), a minority carry divergent branches or
// loops, and a handful exhibit the deep imbalanced nesting that
// speculative reconvergence targets. Running the automatic detector over
// this population reproduces the funnel, and the top detected kernels
// feed Figure 10 alongside the OptiX and MeiyaMD5 workloads.
package corpus

import (
	"fmt"

	"specrecon/internal/ir"
	"specrecon/internal/rng"
)

// Kind labels the generator archetypes.
type Kind int

const (
	// KindStreaming is a uniform elementwise kernel: no divergence.
	KindStreaming Kind = iota
	// KindStencil is a uniform loop nest over neighbours.
	KindStencil
	// KindReduction is a uniform loop with an atomic tail.
	KindReduction
	// KindBranchy has divergent branches with cheap sides (divergent
	// but not worth transforming).
	KindBranchy
	// KindImbalancedLoop has a divergent-trip inner loop nested in an
	// outer loop — a Loop Merge opportunity whose profitability depends
	// on the generated cost balance.
	KindImbalancedLoop
	// KindDivergentCond has an expensive divergent conditional inside a
	// loop — an Iteration Delay opportunity.
	KindDivergentCond
)

func (k Kind) String() string {
	switch k {
	case KindStreaming:
		return "streaming"
	case KindStencil:
		return "stencil"
	case KindReduction:
		return "reduction"
	case KindBranchy:
		return "branchy"
	case KindImbalancedLoop:
		return "imbalanced-loop"
	case KindDivergentCond:
		return "divergent-cond"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// App is one synthetic application.
type App struct {
	Name   string
	Kind   Kind
	Module *ir.Module
	Kernel string
	// Threads and Memory configure the reference launch.
	Threads int
	Memory  []uint64
	Seed    uint64
}

// Generate builds n synthetic applications with the population mix
// described in the package comment. The same seed always produces the
// same corpus.
func Generate(n int, seed uint64) []*App {
	r := rng.Split(seed, 0xc0405)
	apps := make([]*App, 0, n)
	for i := 0; i < n; i++ {
		// ~85% uniform kernels, ~7% cheaply branchy, ~8% candidates
		// with generated (often unprofitable) cost balances — matching
		// the paper's observation that "divergent workloads form a
		// small fraction of GPU applications" (~75 of 520 below the
		// 80% efficiency screen).
		var kind Kind
		switch p := r.Float64(); {
		case p < 0.37:
			kind = KindStreaming
		case p < 0.66:
			kind = KindStencil
		case p < 0.855:
			kind = KindReduction
		case p < 0.925:
			kind = KindBranchy
		case p < 0.968:
			kind = KindImbalancedLoop
		default:
			kind = KindDivergentCond
		}
		apps = append(apps, generateApp(i, kind, rng.Split(seed, uint64(i)+1)))
	}
	return apps
}

func generateApp(i int, kind Kind, r *rng.Source) *App {
	name := fmt.Sprintf("app%03d-%s", i, kind)
	m := ir.NewModule(name)
	threads := ir.WarpWidth
	m.MemWords = threads + 512

	b := ir.NewBuilder(m.NewFunction("kernel"))

	switch kind {
	case KindStreaming:
		genStreaming(b, r)
	case KindStencil:
		genStencil(b, r)
	case KindReduction:
		genReduction(b, r)
	case KindBranchy:
		genBranchy(b, r)
	case KindImbalancedLoop:
		genImbalancedLoop(b, r)
	case KindDivergentCond:
		genDivergentCond(b, r)
	}
	b.Finish()

	// The input words are 16-bit integers, so every fld of one reads a
	// float64 subnormal (or zero), and the streaming, stencil and
	// reduction kernels multiply subnormals. That is a property of the
	// population, kept because every digest and golden depends on it;
	// the simulator multiplies them without the host's assist
	// (DESIGN.md §8, "Lane arithmetic the host penalises").
	mem := make([]uint64, m.MemWords)
	for w := threads; w < m.MemWords; w++ {
		mem[w] = uint64(r.Intn(1 << 16))
	}
	return &App{
		Name:    name,
		Kind:    kind,
		Module:  m,
		Kernel:  "kernel",
		Threads: threads,
		Memory:  mem,
		Seed:    uint64(i) * 2654435761,
	}
}

// genStreaming: out[tid] = f(in[tid]) with a uniform inner loop.
func genStreaming(b *ir.Builder, r *rng.Source) {
	bl := b.Blocks("entry", "header", "body", "done")
	entry, header, body, done := bl[0], bl[1], bl[2], bl[3]

	b.SetBlock(entry)
	tid := b.Tid()
	i := b.Reg()
	b.ConstTo(i, 0)
	n := b.Const(int64(8 + r.Intn(24)))
	acc := b.FConst(1.0)
	b.Br(header)

	b.SetBlock(header)
	b.CBr(b.SetLT(i, n), body, done)

	b.SetBlock(body)
	v := b.FLoad(b.AddI(b.ModI(b.Add(tid, i), 256), 32), 0)
	b.FMovTo(acc, b.FMA(acc, v, acc))
	b.MovTo(i, b.AddI(i, 1))
	b.Br(header)

	b.SetBlock(done)
	b.FStore(tid, 0, acc)
	b.Exit()
}

// genStencil: uniform doubly nested loop.
func genStencil(b *ir.Builder, r *rng.Source) {
	bl := b.Blocks("entry", "outer_header", "inner_header", "inner_body", "outer_inc", "done")
	entry, oh, ih, ibody, oinc, done := bl[0], bl[1], bl[2], bl[3], bl[4], bl[5]

	b.SetBlock(entry)
	tid := b.Tid()
	i := b.Reg()
	b.ConstTo(i, 0)
	ni := b.Const(int64(4 + r.Intn(8)))
	j := b.Reg()
	nj := b.Const(int64(3 + r.Intn(5)))
	acc := b.FConst(0.5)
	b.Br(oh)

	b.SetBlock(oh)
	b.ConstTo(j, 0)
	b.CBr(b.SetLT(i, ni), ih, done)

	b.SetBlock(ih)
	b.CBr(b.SetLT(j, nj), ibody, oinc)

	b.SetBlock(ibody)
	v := b.FLoad(b.AddI(b.ModI(b.Add(b.Add(tid, i), j), 256), 32), 0)
	b.FMovTo(acc, b.FAdd(acc, b.FMulI(v, 0.25)))
	b.MovTo(j, b.AddI(j, 1))
	b.Br(ih)

	b.SetBlock(oinc)
	b.MovTo(i, b.AddI(i, 1))
	b.Br(oh)

	b.SetBlock(done)
	b.FStore(tid, 0, acc)
	b.Exit()
}

// genReduction: uniform loop plus atomic accumulation.
func genReduction(b *ir.Builder, r *rng.Source) {
	bl := b.Blocks("entry", "header", "body", "done")
	entry, header, body, done := bl[0], bl[1], bl[2], bl[3]

	b.SetBlock(entry)
	tid := b.Tid()
	i := b.Reg()
	b.ConstTo(i, 0)
	n := b.Const(int64(16 + r.Intn(16)))
	acc := b.FConst(0)
	b.Br(header)

	b.SetBlock(header)
	b.CBr(b.SetLT(i, n), body, done)

	b.SetBlock(body)
	v := b.FLoad(b.AddI(b.ModI(b.Add(tid, b.MulI(i, 7)), 256), 32), 0)
	b.FMovTo(acc, b.FAdd(acc, v))
	b.MovTo(i, b.AddI(i, 1))
	b.Br(header)

	b.SetBlock(done)
	zero := b.Const(0)
	b.FAtomAdd(zero, 8, acc)
	b.FStore(tid, 0, acc)
	b.Exit()
}

// genBranchy: divergent branches whose sides are cheap — the detector's
// cost model should reject these.
func genBranchy(b *ir.Builder, r *rng.Source) {
	bl := b.Blocks("entry", "header", "split", "thn", "els", "merge", "done")
	entry, header, split, thn, els, merge, done := bl[0], bl[1], bl[2], bl[3], bl[4], bl[5], bl[6]

	b.SetBlock(entry)
	tid := b.Tid()
	i := b.Reg()
	b.ConstTo(i, 0)
	n := b.Const(int64(12 + r.Intn(20)))
	acc := b.FConst(0)
	b.Br(header)

	b.SetBlock(header)
	b.CBr(b.SetLT(i, n), split, done)

	b.SetBlock(split)
	c := b.FSetLTI(b.FRand(), 0.5)
	b.CBr(c, thn, els)

	b.SetBlock(thn)
	b.FMovTo(acc, b.FAddI(acc, 1.0))
	b.Br(merge)

	b.SetBlock(els)
	b.FMovTo(acc, b.FAddI(acc, 2.0))
	b.Br(merge)

	b.SetBlock(merge)
	b.MovTo(i, b.AddI(i, 1))
	b.Br(header)

	b.SetBlock(done)
	b.FStore(tid, 0, acc)
	b.Exit()
}

// genImbalancedLoop: divergent-trip inner loop inside an outer loop; the
// inner body weight is drawn from a wide range, so only some instances
// pass the profitability test.
func genImbalancedLoop(b *ir.Builder, r *rng.Source) {
	bl := b.Blocks("entry", "outer_header", "prolog", "inner_header", "inner_body", "epilog", "done")
	entry, oh, prolog, ih, ibody, epilog, done := bl[0], bl[1], bl[2], bl[3], bl[4], bl[5], bl[6]

	weight := 1 + r.Intn(14)    // inner body heaviness
	epiWeight := 1 + r.Intn(10) // epilog heaviness
	maxTrip := int64(8 + r.Intn(40))

	b.SetBlock(entry)
	tid := b.Tid()
	task := b.Reg()
	b.ConstTo(task, 0)
	nTasks := b.Const(int64(6 + r.Intn(8)))
	acc := b.FConst(0)
	b.Br(oh)

	b.SetBlock(oh)
	b.CBr(b.SetLT(task, nTasks), prolog, done)

	b.SetBlock(prolog)
	trip := b.AddI(b.ModI(b.Rand(), maxTrip), 1)
	j := b.Reg()
	b.ConstTo(j, 0)
	seed := b.FRand()
	b.Br(ih)

	b.SetBlock(ih)
	b.CBr(b.SetLT(j, trip), ibody, epilog)

	b.SetBlock(ibody)
	x := heavyFlopsCorpus(b, b.FAdd(acc, seed), seed, weight)
	b.FMovTo(acc, b.FAdd(acc, x))
	b.MovTo(j, b.AddI(j, 1))
	b.Br(ih)

	b.SetBlock(epilog)
	e := heavyFlopsCorpus(b, acc, seed, epiWeight)
	b.FMovTo(acc, b.FMulI(e, 0.5))
	b.MovTo(task, b.AddI(task, 1))
	b.Br(oh)

	b.SetBlock(done)
	b.FStore(tid, 0, acc)
	b.Exit()
}

// genDivergentCond: loop with a rarely-taken expensive conditional.
func genDivergentCond(b *ir.Builder, r *rng.Source) {
	bl := b.Blocks("entry", "header", "split", "expensive", "merge", "done")
	entry, header, split, expensive, merge, done := bl[0], bl[1], bl[2], bl[3], bl[4], bl[5]

	weight := 4 + r.Intn(20)
	takeP := 0.1 + float64(0.3*r.Float64()) // unfused on every host

	b.SetBlock(entry)
	tid := b.Tid()
	i := b.Reg()
	b.ConstTo(i, 0)
	n := b.Const(int64(24 + r.Intn(40)))
	acc := b.FConst(0)
	b.Br(header)

	b.SetBlock(header)
	b.CBr(b.SetLT(i, n), split, done)

	b.SetBlock(split)
	b.FMovTo(acc, b.FAddI(acc, 0.25))
	c := b.FSetLTI(b.FRand(), takeP)
	b.CBr(c, expensive, merge)

	b.SetBlock(expensive)
	x := heavyFlopsCorpus(b, b.FAddI(acc, 1.0), acc, weight)
	b.FMovTo(acc, b.FAdd(acc, x))
	b.Br(merge)

	b.SetBlock(merge)
	b.MovTo(i, b.AddI(i, 1))
	b.Br(header)

	b.SetBlock(done)
	b.FStore(tid, 0, acc)
	b.Exit()
}

// heavyFlopsCorpus mirrors workloads.heavyFlops without importing it
// (corpus is deliberately independent of the benchmark package).
func heavyFlopsCorpus(b *ir.Builder, x, p ir.Reg, n int) ir.Reg {
	for k := 0; k < n; k++ {
		x = b.FMA(x, x, p)
		x = b.FSqrt(b.FAbs(x))
	}
	return x
}
