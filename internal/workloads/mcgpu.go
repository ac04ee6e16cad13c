package workloads

import (
	"specrecon/internal/ir"
)

// MC-GPU: "a GPU-accelerated Monte Carlo simulation used to model
// radiation transport of x-rays for CT scans of the human anatomy."
// (Table 2, [3].)
//
// Each thread transports a batch of x-ray photons through a voxelized
// phantom. The interaction loop samples a free path (flog), looks the
// voxel's material cross-sections up (gather), and samples the
// interaction angle (trig) until the photon is absorbed or leaves the
// body — a divergent trip count. The epilog scores the detector.
const (
	mcgpuVoxels  = 1 << 10
	mcgpuEscapeP = 0.16
	mcgpuMaxHops = 40
)

func buildMCGPU(cfg BuildConfig) *Instance {
	cfg = cfg.withDefaults(12)
	voxBase := int64(cfg.Threads)

	m := ir.NewModule("mcgpu")
	m.MemWords = int(voxBase) + mcgpuVoxels

	f := m.NewFunction("mcgpu_photon_kernel")
	b := ir.NewBuilder(f)

	// emit is the prolog, score the epilog.
	bl := b.Blocks("entry", "outer_header", "emit", "hop_header", "hop_body", "score", "done")
	entry, outerHeader, emit, hopHeader, hopBody, score, done := bl[0], bl[1], bl[2], bl[3], bl[4], bl[5], bl[6]

	b.SetBlock(entry)
	tid := b.Tid()
	ph := b.Reg()
	b.ConstTo(ph, 0)
	nPhotons := b.Const(int64(cfg.Tasks))
	detector := b.FReg()
	b.FConstTo(detector, 0)
	b.Br(outerHeader)

	b.SetBlock(outerHeader)
	more := b.SetLT(ph, nPhotons)
	b.CBr(more, emit, done)

	// Prolog: emit a photon from the source spectrum.
	b.SetBlock(emit)
	keV := b.FAddI(b.FMulI(b.FRand(), 80.0), 20.0)
	pos := b.FReg()
	b.FConstTo(pos, 0)
	hop := b.Reg()
	b.ConstTo(hop, 0)
	maxHop := b.Const(mcgpuMaxHops)
	b.PredictThreshold(hopBody, 24)
	b.Br(hopHeader)

	b.SetBlock(hopHeader)
	flying := b.FSetGTI(b.FRand(), mcgpuEscapeP)
	under := b.SetLT(hop, maxHop)
	cont := b.And(flying, under)
	b.CBr(cont, hopBody, score)

	// Interaction: free path, voxel lookup, Compton angle sampling.
	b.SetBlock(hopBody)
	u := b.FAddI(b.FMulI(b.FRand(), 0.98), 0.01)
	path := b.FNeg(b.FMul(b.FLog(u), b.FMulI(keV, 0.01)))
	b.FMovTo(pos, b.FAdd(pos, path))
	vox := b.AndI(b.FtoI(b.FMulI(b.FAbs(pos), 64.0)), mcgpuVoxels-1)
	mu := b.FLoad(b.AddI(vox, voxBase), 0)
	ang := heavyTrig(b, b.FAdd(path, mu), 5)
	b.FMovTo(keV, b.FMaxOp(b.FMulI(b.FMul(keV, b.FAddI(b.FAbs(ang), 0.05)), 0.62), b.FConst(1.0)))
	b.MovTo(hop, b.AddI(hop, 1))
	b.Br(hopHeader)

	// Epilog: score whatever energy reached the detector.
	b.SetBlock(score)
	b.FMovTo(detector, b.FAdd(detector, b.FMulI(keV, 0.001)))
	b.MovTo(ph, b.AddI(ph, 1))
	b.Br(outerHeader)

	b.SetBlock(done)
	b.FStore(tid, 0, detector)
	b.Exit()
	b.Finish()

	mem := make([]uint64, m.MemWords)
	r := newTableRNG(cfg.Seed)
	tableRand(mem, int(voxBase), mcgpuVoxels, func(i int) uint64 {
		return floatBits(0.02 + float64(r.Float64()*0.4)) // unfused on every host
	})
	return &Instance{Module: m, Kernel: f.Name, Threads: cfg.Threads, Memory: mem, Seed: cfg.Seed}
}

func init() {
	register(&Workload{
		Name: "mc-gpu",
		Description: "A GPU-accelerated Monte Carlo simulation used to model radiation transport " +
			"of x-rays for CT scans of the human anatomy.",
		Pattern:   "loop-merge",
		Annotated: true,
		BuildFn:   buildMCGPU,
	})
}
