package workloads

import (
	"specrecon/internal/ir"
)

// PathTracer: "a simple CUDA-based microbenchmark that renders a sample
// scene composed of spheres in a Cornell box. Has loop trip count
// divergence." (Table 2.)
//
// Each thread integrates several samples (outer loop). Per sample, the
// prolog generates a camera ray (deliberately cheap — section 5.3 notes
// the cost of refilling an idle lane is low for PathTracer, which is why
// it prefers full reconvergence). The bounce loop intersects the ray
// against the sphere set (heavy fma/fsqrt/fdiv math — the expensive
// common code) and terminates by Russian roulette, giving a geometric,
// highly divergent trip count. The epilog accumulates the sample into
// the framebuffer.
//
// Memory layout:
//
//	[0, threads)             framebuffer (one word per thread)
//	[sphBase, +4*nSpheres)   sphere centres/radii
const (
	pathNSpheres   = 16
	pathMaxBounces = 12
	// pathContinueP is the Russian-roulette survival probability.
	pathContinueP = 0.72
)

func buildPathTracer(cfg BuildConfig) *Instance {
	cfg = cfg.withDefaults(16)
	sphBase := int64(cfg.Threads)

	m := ir.NewModule("pathtracer")
	m.MemWords = int(sphBase) + 4*pathNSpheres

	f := m.NewFunction("pathtrace_kernel")
	b := ir.NewBuilder(f)

	// camera is the prolog, which generates the camera ray; accumulate is
	// the epilog.
	bl := b.Blocks("entry", "sample_header", "camera", "bounce_header", "bounce_body", "accumulate", "done")
	entry, sampleHeader, camera, bounceHeader, bounceBody, accumulate, done := bl[0], bl[1], bl[2], bl[3], bl[4], bl[5], bl[6]

	b.SetBlock(entry)
	tid := b.Tid()
	sample := b.Reg()
	b.ConstTo(sample, 0)
	nSamples := b.Const(int64(cfg.Tasks))
	color := b.FReg()
	b.FConstTo(color, 0)
	b.Br(sampleHeader)

	b.SetBlock(sampleHeader)
	more := b.SetLT(sample, nSamples)
	b.CBr(more, camera, done)

	// Prolog: cheap camera-ray generation.
	b.SetBlock(camera)
	jitter := b.FRand()
	dir := b.FAddI(b.FMulI(jitter, 0.04), 0.3)
	throughput := b.FReg()
	b.FConstTo(throughput, 1.0)
	bounce := b.Reg()
	b.ConstTo(bounce, 0)
	maxB := b.Const(pathMaxBounces)
	b.Predict(bounceBody)
	b.Br(bounceHeader)

	// Russian roulette plus a bounce cap: divergent trip count.
	b.SetBlock(bounceHeader)
	alive := b.FSetLTI(b.FRand(), pathContinueP)
	under := b.SetLT(bounce, maxB)
	cont := b.And(alive, under)
	b.CBr(cont, bounceBody, accumulate)

	// Bounce body: intersect against the sphere set — the expensive
	// common code (quadratic solve per sphere).
	b.SetBlock(bounceBody)
	sIdx := b.ModI(b.Add(b.FtoI(b.FMulI(dir, 8.0)), bounce), pathNSpheres)
	sAddr := b.AddI(b.MulI(sIdx, 4), sphBase)
	cx := b.FLoad(sAddr, 0)
	cy := b.FLoad(sAddr, 1)
	r2 := b.FLoad(sAddr, 3)
	oc := b.FSub(dir, cx)
	bq := b.FMul(oc, cy)
	cq := b.FSub(b.FMul(oc, oc), r2)
	disc := b.FSub(b.FMul(bq, bq), cq)
	disc = b.FAbs(disc)
	root := b.FSqrt(disc)
	t := b.FSub(b.FNeg(bq), root)
	t = heavyFlops(b, t, root, 8)
	// Lambertian-ish attenuation and new direction.
	b.FMovTo(throughput, b.FMulI(b.FMul(throughput, b.FAddI(b.FAbs(t), 0.1)), 0.55))
	dirN := b.FAddI(b.FMulI(b.FSin(t), 0.5), 0.5)
	b.FMovTo(dir, dirN)
	b.MovTo(bounce, b.AddI(bounce, 1))
	b.Br(bounceHeader)

	// Epilog: add the sample's radiance estimate to the pixel.
	b.SetBlock(accumulate)
	b.FMovTo(color, b.FAdd(color, throughput))
	b.MovTo(sample, b.AddI(sample, 1))
	b.Br(sampleHeader)

	b.SetBlock(done)
	b.FStore(tid, 0, color)
	b.Exit()
	b.Finish()

	mem := make([]uint64, m.MemWords)
	r := newTableRNG(cfg.Seed)
	for i := 0; i < pathNSpheres; i++ {
		base := int(sphBase) + 4*i
		// float64(…) keeps arm64 from fusing each product into its sum.
		mem[base+0] = floatBits(float64(r.Float64()*2) - 1)    // cx
		mem[base+1] = floatBits(float64(r.Float64()*2) - 1)    // cy
		mem[base+2] = floatBits(float64(r.Float64()*2) - 1)    // cz
		mem[base+3] = floatBits(0.04 + float64(r.Float64()/4)) // r^2
	}
	return &Instance{Module: m, Kernel: f.Name, Threads: cfg.Threads, Memory: mem, Seed: cfg.Seed}
}

func init() {
	register(&Workload{
		Name: "pathtracer",
		Description: "A simple CUDA-based microbenchmark that renders a sample scene composed " +
			"of spheres in a Cornell box. Has loop trip count divergence.",
		Pattern:   "loop-merge",
		Annotated: true,
		BuildFn:   buildPathTracer,
	})
}
