package workloads

import (
	"specrecon/internal/ir"
)

// GPU-MCML: "a benchmark that simulates photon transport" in turbid
// media (Table 2, [2]) — the hop/drop/spin kernel of the MCML family.
//
// Each thread propagates a batch of photon packets through layered
// tissue. The propagation loop does hop (exponential step, flog), drop
// (deposit weight into the absorption grid — a divergent scatter), and
// spin (direction update, trig), with Russian roulette termination. The
// epilog finalizes the packet. The trip count is geometric, making the
// propagation loop the Loop Merge target.
const (
	mcmlGrid    = 512
	mcmlExitP   = 0.14
	mcmlMaxHops = 44
)

func buildGPUMCML(cfg BuildConfig) *Instance {
	cfg = cfg.withDefaults(12)
	gridBase := int64(cfg.Threads)

	m := ir.NewModule("gpu-mcml")
	m.MemWords = int(gridBase) + mcmlGrid

	f := m.NewFunction("mcml_propagate_kernel")
	b := ir.NewBuilder(f)

	// launch is the prolog, finish the epilog.
	bl := b.Blocks("entry", "outer_header", "launch", "hop_header", "hop_body", "finish", "done")
	entry, outerHeader, launch, hopHeader, hopBody, finish, done := bl[0], bl[1], bl[2], bl[3], bl[4], bl[5], bl[6]

	b.SetBlock(entry)
	tid := b.Tid()
	pk := b.Reg()
	b.ConstTo(pk, 0)
	nPackets := b.Const(int64(cfg.Tasks))
	escaped := b.FReg()
	b.FConstTo(escaped, 0)
	b.Br(outerHeader)

	b.SetBlock(outerHeader)
	more := b.SetLT(pk, nPackets)
	b.CBr(more, launch, done)

	// Prolog: launch a photon packet.
	b.SetBlock(launch)
	weight := b.FReg()
	b.FConstTo(weight, 1.0)
	depthF := b.FReg()
	b.FConstTo(depthF, 0)
	hop := b.Reg()
	b.ConstTo(hop, 0)
	maxHop := b.Const(mcmlMaxHops)
	b.PredictThreshold(hopBody, 24)
	b.Br(hopHeader)

	b.SetBlock(hopHeader)
	alive := b.FSetGTI(b.FRand(), mcmlExitP)
	under := b.SetLT(hop, maxHop)
	cont := b.And(alive, under)
	b.CBr(cont, hopBody, finish)

	// Hop / drop / spin — the expensive common code.
	b.SetBlock(hopBody)
	u := b.FAddI(b.FMulI(b.FRand(), 0.98), 0.01)
	step := b.FNeg(b.FLog(u))
	b.FMovTo(depthF, b.FAdd(depthF, step))
	cell := b.AndI(b.FtoI(b.FMulI(b.FAbs(depthF), 32.0)), mcmlGrid-1)
	// Drop: deposit a fraction of the weight into the absorption grid.
	drop := b.FMulI(weight, 0.1)
	b.FAtomAdd(b.AddI(cell, gridBase), 0, drop)
	b.FMovTo(weight, b.FSub(weight, drop))
	// Spin: new scattering direction.
	spun := heavyTrig(b, b.FAdd(step, weight), 4)
	b.FMovTo(depthF, b.FMulI(b.FMul(depthF, b.FAddI(b.FAbs(spun), 0.4)), 0.8))
	b.MovTo(hop, b.AddI(hop, 1))
	b.Br(hopHeader)

	// Epilog: tally the surviving (escaping) weight.
	b.SetBlock(finish)
	b.FMovTo(escaped, b.FAdd(escaped, weight))
	b.MovTo(pk, b.AddI(pk, 1))
	b.Br(outerHeader)

	b.SetBlock(done)
	b.FStore(tid, 0, escaped)
	b.Exit()
	b.Finish()

	mem := make([]uint64, m.MemWords)
	return &Instance{Module: m, Kernel: f.Name, Threads: cfg.Threads, Memory: mem, Seed: cfg.Seed}
}

func init() {
	register(&Workload{
		Name:        "gpu-mcml",
		Description: "Simulates photon transport in turbid media (MCML hop/drop/spin) with Russian-roulette termination.",
		Pattern:     "loop-merge",
		Annotated:   true,
		BuildFn:     buildGPUMCML,
	})
}
