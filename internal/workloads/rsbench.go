package workloads

import (
	"specrecon/internal/ir"
)

// RSBench: "a nuclear reactor simulation mini-application that optimizes
// Monte Carlo neutron transport. The main kernel in RSBench has a loop
// with a divergent trip count. We apply thread coarsening to increase
// work per thread." (Table 2, [13][26].)
//
// Structure per Figure 3: a coarsened outer loop fetches a random
// material in the Prolog; the inner loop walks that material's nuclides
// (4 to 321 per material, so the trip count diverges across lanes)
// accumulating windowed-multipole cross-section math; the Epilog
// post-processes and accumulates the lookup. The proposed reconvergence
// point (Loop Merge) is the inner loop body; the prediction region starts
// at the inner loop preheader, inside the outer loop.
//
// Memory layout (word indices):
//
//	[0, threads)                  per-thread accumulator output
//	[matBase, matBase+nMat)       nuclide count per material (4..321)
//	[poleBase, poleBase+nPole)    pole data gathered by the inner loop
const (
	rsbenchNMat   = 64
	rsbenchNPole  = 1 << 12
	rsbenchMinNuc = 4
	rsbenchMaxNuc = 321
	// rsbenchNucScale divides the paper's nuclide counts to keep
	// simulated runtimes in seconds; the 4..321 spread (≈80x
	// imbalance) is preserved at 1..81.
	rsbenchNucScale = 4
)

func buildRSBench(cfg BuildConfig) *Instance {
	cfg = cfg.withDefaults(12)
	matBase := int64(cfg.Threads)
	poleBase := matBase + rsbenchNMat

	m := ir.NewModule("rsbench")
	m.MemWords = int(poleBase) + rsbenchNPole
	f := m.NewFunction("rsbench_lookup_kernel")
	b := ir.NewBuilder(f)

	bl := b.Blocks("entry", "outer_header", "prolog", "inner_header", "inner_body", "epilog", "done")
	entry, outerHeader, prolog, innerHeader, innerBody, epilog, done := bl[0], bl[1], bl[2], bl[3], bl[4], bl[5], bl[6]

	b.SetBlock(entry)
	tid := b.Tid()
	task := b.Reg()
	b.ConstTo(task, 0)
	nTasks := b.Const(int64(cfg.Tasks))
	macroXS := b.FReg() // accumulated macroscopic cross section
	b.FConstTo(macroXS, 0)
	b.Br(outerHeader)

	b.SetBlock(outerHeader)
	more := b.SetLT(task, nTasks)
	b.CBr(more, prolog, done)

	// Prolog: sample a material and load its nuclide count (Figure 3's
	// get_random_material); set up the inner walk.
	b.SetBlock(prolog)
	mat := b.ModI(b.Rand(), rsbenchNMat)
	matAddr := b.AddI(mat, matBase)
	nNuc := b.Load(matAddr, 0) // divergent trip count, 1..81
	j := b.Reg()
	b.ConstTo(j, 0)
	energy := b.FRand() // neutron energy for this lookup
	// Predict(L1): the prediction region starts here, at the inner
	// loop preheader inside the outer loop. The tuned soft-barrier
	// threshold lets a 28-lane cohort proceed instead of stalling on
	// the longest-material stragglers.
	b.PredictThreshold(innerBody, 28)
	b.Br(innerHeader)

	b.SetBlock(innerHeader)
	cont := b.SetLT(j, nNuc)
	b.CBr(cont, innerBody, epilog)

	// Inner body (proposed reconvergence point L1): gather this
	// nuclide's pole data and accumulate windowed-multipole math.
	b.SetBlock(innerBody)
	idx := b.ModI(b.Add(b.MulI(j, 131), b.MulI(mat, 17)), rsbenchNPole)
	pole := b.FLoad(b.AddI(idx, poleBase), 0)
	x := b.FAdd(energy, pole)
	x = heavyFlops(b, x, energy, 10)
	sigT := b.FDiv(x, b.FAddI(b.FAbs(pole), 1.0))
	b.FMovTo(macroXS, b.FAdd(macroXS, sigT))
	b.MovTo(j, b.AddI(j, 1))
	b.Br(innerHeader)

	// Epilog: post_processing() — verification hash of the lookup.
	b.SetBlock(epilog)
	e := b.FMulI(macroXS, 0.5)
	e = b.FAdd(e, b.FMulI(energy, 2.0))
	b.FMovTo(macroXS, b.FMulI(e, 0.998))
	b.MovTo(task, b.AddI(task, 1))
	b.Br(outerHeader)

	b.SetBlock(done)
	b.FStore(tid, 0, macroXS)
	b.Exit()
	b.Finish()

	mem := make([]uint64, m.MemWords)
	r := newTableRNG(cfg.Seed)
	scale := rsbenchNucScale
	if cfg.FullScale {
		scale = 1 // the paper's 4..321 nuclides per material, unscaled
	}
	tableRand(mem, int(matBase), rsbenchNMat, func(i int) uint64 {
		// Materials are mostly small with a fat tail of large ones
		// (H-M benchmark materials range from a handful of nuclides to
		// the 321-nuclide fuel), which is what makes the default
		// synchronization serialize so badly.
		if r.Float64() < 0.7 {
			return uint64(r.Range(rsbenchMinNuc, 48) / scale)
		}
		return uint64(r.Range(192, rsbenchMaxNuc) / scale)
	})
	tableRand(mem, int(poleBase), rsbenchNPole, func(i int) uint64 {
		return floatBits(0.25 + float64(1.5*r.Float64())) // unfused on every host
	})
	return &Instance{Module: m, Kernel: f.Name, Threads: cfg.Threads, Memory: mem, Seed: cfg.Seed}
}

func init() {
	register(&Workload{
		Name: "rsbench",
		Description: "A nuclear reactor simulation mini-application that optimizes Monte Carlo " +
			"neutron transport. The main kernel has a loop with a divergent trip count; " +
			"thread coarsening increases work per thread.",
		Pattern:   "loop-merge",
		Annotated: true,
		BuildFn:   buildRSBench,
	})
}
