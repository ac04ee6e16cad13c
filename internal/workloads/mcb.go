package workloads

import (
	"specrecon/internal/ir"
)

// MCB: "a Monte Carlo benchmark used to test performance of parallel
// architectures. Simulates a simplified variant of the heuristic
// transport equation." (Table 2, LLNL codesign suite [16].)
//
// Each thread transports a batch of particles (outer loop). The prolog
// sources a particle with a random energy; the tracking loop advances the
// particle segment by segment — exponential free-flight sampling (flog),
// tally math — until the particle leaks or is absorbed, a divergent,
// geometrically distributed trip count. The epilog commits the particle's
// tally. Loop Merge keeps the tracking loop converged.
const (
	mcbZones   = 256
	mcbAbsorbP = 0.18 // per-segment termination probability
	mcbMaxSegs = 48
)

func buildMCB(cfg BuildConfig) *Instance {
	cfg = cfg.withDefaults(14)
	zoneBase := int64(cfg.Threads)

	m := ir.NewModule("mcb")
	m.MemWords = int(zoneBase) + mcbZones

	f := m.NewFunction("mcb_track_kernel")
	b := ir.NewBuilder(f)

	// source is the prolog, tally the epilog.
	bl := b.Blocks("entry", "outer_header", "source", "seg_header", "seg_body", "tally", "done")
	entry, outerHeader, source, segHeader, segBody, tally, done := bl[0], bl[1], bl[2], bl[3], bl[4], bl[5], bl[6]

	b.SetBlock(entry)
	tid := b.Tid()
	p := b.Reg()
	b.ConstTo(p, 0)
	nParticles := b.Const(int64(cfg.Tasks))
	total := b.FReg()
	b.FConstTo(total, 0)
	b.Br(outerHeader)

	b.SetBlock(outerHeader)
	more := b.SetLT(p, nParticles)
	b.CBr(more, source, done)

	// Prolog: source a particle.
	b.SetBlock(source)
	energy := b.FAddI(b.FMulI(b.FRand(), 4.0), 1.0)
	weight := b.FReg()
	b.FConstTo(weight, 1.0)
	seg := b.Reg()
	b.ConstTo(seg, 0)
	maxSeg := b.Const(mcbMaxSegs)
	b.PredictThreshold(segBody, 28)
	b.Br(segHeader)

	b.SetBlock(segHeader)
	alive := b.FSetGTI(b.FRand(), mcbAbsorbP)
	under := b.SetLT(seg, maxSeg)
	cont := b.And(alive, under)
	b.CBr(cont, segBody, tally)

	// Segment advance: sample free flight, attenuate, tally into the
	// zone the particle crossed — the expensive common code.
	b.SetBlock(segBody)
	u := b.FAddI(b.FMulI(b.FRand(), 0.98), 0.01)
	dist := b.FNeg(b.FMul(b.FLog(u), energy))
	x := heavyFlops(b, dist, energy, 7)
	b.FMovTo(weight, b.FMulI(b.FMul(weight, b.FAddI(b.FAbs(b.FSin(x)), 0.2)), 0.8))
	zone := b.ModI(b.Add(b.FtoI(b.FMulI(dist, 16.0)), seg), mcbZones)
	zv := b.FLoad(b.AddI(zone, zoneBase), 0)
	b.FMovTo(energy, b.FMaxOp(b.FMulI(b.FAdd(energy, zv), 0.7), b.FConst(0.05)))
	b.MovTo(seg, b.AddI(seg, 1))
	b.Br(segHeader)

	// Epilog: commit the particle tally.
	b.SetBlock(tally)
	b.FMovTo(total, b.FAdd(total, weight))
	b.MovTo(p, b.AddI(p, 1))
	b.Br(outerHeader)

	b.SetBlock(done)
	b.FStore(tid, 0, total)
	b.Exit()
	b.Finish()

	mem := make([]uint64, m.MemWords)
	r := newTableRNG(cfg.Seed)
	tableRand(mem, int(zoneBase), mcbZones, func(i int) uint64 {
		return floatBits(r.Float64() * 0.25)
	})
	return &Instance{Module: m, Kernel: f.Name, Threads: cfg.Threads, Memory: mem, Seed: cfg.Seed}
}

func init() {
	register(&Workload{
		Name: "mcb",
		Description: "A Monte Carlo benchmark used to test performance of parallel architectures. " +
			"Simulates a simplified variant of the heuristic transport equation.",
		Pattern:   "loop-merge",
		Annotated: true,
		BuildFn:   buildMCB,
	})
}
