package workloads

import (
	"specrecon/internal/ir"
)

// XSBench "simulates a problem similar to RSBench, but is memory bound
// rather than compute bound. In particular, we find that the nested
// divergent loop in the XSBench kernel has both an expensive inner loop
// and an expensive epilog." (Table 2, [27].)
//
// The inner loop walks a material's nuclides doing dependent gather loads
// into a large unionized energy grid (the classic XSBench access pattern
// that misses in cache), so the common code is memory-latency bound. The
// epilog models the expensive new-task acquisition the paper calls out in
// section 5.3 — a verification reduction plus several table lookups —
// which is why XSBench prefers a partial (soft-barrier) reconvergence:
// refilling idle lanes too eagerly re-executes this epilog divergently.
//
// Memory layout:
//
//	[0, threads)                 per-thread output
//	[matBase, +nMat)             nuclide count per material
//	[gridBase, +gridWords)       unionized energy grid (large, miss-prone)
const (
	xsbenchNMat      = 64
	xsbenchGridWords = 1 << 14 // 16Ki words: twice the cache, ~50% miss
	xsbenchMinNuc    = 4
	xsbenchMaxNuc    = 48
	// xsbenchDefaultThreshold is the tuned soft-barrier threshold: the
	// refill cohort proceeds once this many lanes have collected,
	// i.e. the inner loop drains to 32-28=4 active lanes (section 5.3).
	xsbenchDefaultThreshold = 20
)

func buildXSBench(cfg BuildConfig) *Instance {
	cfg = cfg.withDefaults(10)
	matBase := int64(cfg.Threads)
	gridBase := matBase + xsbenchNMat

	m := ir.NewModule("xsbench")
	m.MemWords = int(gridBase) + xsbenchGridWords
	f := m.NewFunction("xsbench_lookup_kernel")
	b := ir.NewBuilder(f)

	bl := b.Blocks("entry", "outer_header", "prolog", "inner_header", "inner_body", "epilog", "done")
	entry, outerHeader, prolog, innerHeader, innerBody, epilog, done := bl[0], bl[1], bl[2], bl[3], bl[4], bl[5], bl[6]

	b.SetBlock(entry)
	tid := b.Tid()
	task := b.Reg()
	b.ConstTo(task, 0)
	nTasks := b.Const(int64(cfg.Tasks))
	acc := b.FReg()
	b.FConstTo(acc, 0)
	b.Br(outerHeader)

	b.SetBlock(outerHeader)
	more := b.SetLT(task, nTasks)
	b.CBr(more, prolog, done)

	// Prolog: sample material + energy; find the energy-grid anchor.
	b.SetBlock(prolog)
	mat := b.ModI(b.Rand(), xsbenchNMat)
	nNuc := b.Load(b.AddI(mat, matBase), 0)
	eIdx := b.ModI(b.Rand(), xsbenchGridWords) // grid anchor for this lookup
	j := b.Reg()
	b.ConstTo(j, 0)
	// XSBench gates the refill rather than the inner body: idle lanes
	// collect at the inner loop's exit (the expensive task-acquisition
	// epilog) and refill together once enough have drained out of the
	// inner loop — "the program continues execution until the number of
	// active threads drops below some threshold and refilling idle
	// threads becomes worth the cost" (section 5.3). The default
	// threshold is the sweet spot of the Figure 9 sweep: the cohort
	// refills once 20 lanes have drained out of the inner loop.
	b.PredictThreshold(epilog, xsbenchDefaultThreshold)
	b.Br(innerHeader)

	b.SetBlock(innerHeader)
	cont := b.SetLT(j, nNuc)
	b.CBr(cont, innerBody, epilog)

	// Inner body: dependent gathers into the unionized grid — the
	// memory-bound common code.
	b.SetBlock(innerBody)
	g0 := b.ModI(b.Add(eIdx, b.MulI(j, 7919)), xsbenchGridWords)
	v0 := b.Load(b.AddI(g0, gridBase), 0)
	g1 := b.ModI(b.Add(v0, b.MulI(j, 104729)), xsbenchGridWords)
	g1 = b.AddI(b.AndI(g1, -2), 1) // odd word: the float half of the pair
	v1 := b.FLoad(b.AddI(g1, gridBase), 0)
	s := b.FMA(v1, v1, v1)
	b.FMovTo(acc, b.FAdd(acc, s))
	b.MovTo(j, b.AddI(j, 1))
	b.Br(innerHeader)

	// Epilog: expensive task retirement + new-task acquisition — the
	// "expensive process required when a thread wants a new task".
	b.SetBlock(epilog)
	x := b.FAddI(acc, 1.0)
	x = heavyFlops(b, x, acc, 20)
	h0 := b.AndI(b.FtoI(b.FMulI(x, 1024.0)), xsbenchGridWords-1)
	h0 = b.AddI(b.AndI(h0, -2), 1)
	t0 := b.FLoad(b.AddI(h0, gridBase), 0)
	x = b.FAdd(x, t0)
	x = heavyFlops(b, x, t0, 20)
	h1 := b.AndI(b.FtoI(b.FMulI(x, 4096.0)), xsbenchGridWords-1)
	h1 = b.AddI(b.AndI(h1, -2), 1)
	t1 := b.FLoad(b.AddI(h1, gridBase), 0)
	x = heavyFlops(b, b.FAdd(x, t1), t1, 16)
	b.FMovTo(acc, b.FMulI(x, 0.5))
	b.MovTo(task, b.AddI(task, 1))
	b.Br(outerHeader)

	b.SetBlock(done)
	b.FStore(tid, 0, acc)
	b.Exit()
	b.Finish()

	mem := make([]uint64, m.MemWords)
	r := newTableRNG(cfg.Seed)
	tableRand(mem, int(matBase), xsbenchNMat, func(i int) uint64 {
		// Heavy-tailed nuclide counts: a majority of cheap materials
		// plus a fat tail, giving the high trip-count variance that
		// makes full reconvergence wait too long (section 5.3).
		if r.Float64() < 0.75 {
			return uint64(r.Range(xsbenchMinNuc, 12))
		}
		return uint64(r.Range(24, xsbenchMaxNuc))
	})
	tableRand(mem, int(gridBase), xsbenchGridWords, func(i int) uint64 {
		if i%2 == 0 {
			return uint64(r.Intn(xsbenchGridWords))
		}
		return floatBits(r.Float64())
	})
	return &Instance{Module: m, Kernel: f.Name, Threads: cfg.Threads, Memory: mem, Seed: cfg.Seed}
}

func init() {
	register(&Workload{
		Name: "xsbench",
		Description: "Simulates a problem similar to RSBench, but memory bound rather than " +
			"compute bound: the nested divergent loop has both an expensive inner loop and " +
			"an expensive epilog.",
		Pattern:   "loop-merge",
		Annotated: true,
		BuildFn:   buildXSBench,
	})
}
