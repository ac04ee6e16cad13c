package workloads

import (
	"fmt"

	"specrecon/internal/ir"
)

// OptiX: "NVIDIA's ray tracing engine optimized to achieve high
// performance for ray tracing based algorithms on parallel
// architectures." (Table 2, [23].) Section 5.4 reports that several
// automatically detected Loop Merge / Iteration Delay candidates come
// from OptiX traces, "an application space known for divergence".
//
// We model three trace kernels with the canonical acceleration-structure
// walk: per ray, a traversal loop visits BVH nodes (data-dependent trip
// count); leaf nodes trigger the expensive primitive-intersection path.
// The variants differ in ray statistics the way ambient-occlusion,
// path and shadow queries do: traversal depth distribution, leaf hit
// rate, and per-hit shading cost. None carries manual annotations —
// these kernels exist to exercise the automatic detector (Figure 10).
type optixVariant struct {
	name      string
	maxDepth  int64
	contP     float64 // traversal continue probability per visited node
	leafP     float64 // probability a visited node is a leaf
	shadeCost int     // heavyFlops rounds in the intersection path
}

var optixVariants = []optixVariant{
	{name: "optix-ao", maxDepth: 24, contP: 0.78, leafP: 0.30, shadeCost: 10},
	{name: "optix-path", maxDepth: 40, contP: 0.85, leafP: 0.22, shadeCost: 14},
	{name: "optix-shadow", maxDepth: 16, contP: 0.70, leafP: 0.40, shadeCost: 7},
}

const optixNodes = 1 << 12

func buildOptix(v optixVariant) func(BuildConfig) *Instance {
	return func(cfg BuildConfig) *Instance {
		cfg = cfg.withDefaults(12)
		nodeBase := int64(cfg.Threads)

		m := ir.NewModule(v.name)
		m.MemWords = int(nodeBase) + optixNodes

		f := m.NewFunction("optix_trace_kernel")
		b := ir.NewBuilder(f)

		// genRay is the prolog, shade the epilog.
		bl := b.Blocks("entry", "ray_header", "gen_ray", "trav_header", "trav_body", "intersect", "trav_next", "shade", "done")
		entry, rayHeader, genRay, travHeader, travBody, intersect, travNext, shade, done := bl[0], bl[1], bl[2], bl[3], bl[4], bl[5], bl[6], bl[7], bl[8]

		b.SetBlock(entry)
		tid := b.Tid()
		ray := b.Reg()
		b.ConstTo(ray, 0)
		nRays := b.Const(int64(cfg.Tasks))
		radiance := b.FReg()
		b.FConstTo(radiance, 0)
		b.Br(rayHeader)

		b.SetBlock(rayHeader)
		more := b.SetLT(ray, nRays)
		b.CBr(more, genRay, done)

		// Prolog: generate the ray and enter the BVH root.
		b.SetBlock(genRay)
		node := b.ModI(b.Rand(), optixNodes)
		hitT := b.FReg()
		b.FConstTo(hitT, 1e9)
		depth := b.Reg()
		b.ConstTo(depth, 0)
		maxDepth := b.Const(v.maxDepth)
		b.Br(travHeader)

		// Traversal continues while the walk stays inside the tree —
		// a divergent trip count.
		b.SetBlock(travHeader)
		inTree := b.FSetLTI(b.FRand(), v.contP)
		under := b.SetLT(depth, maxDepth)
		cont := b.And(inTree, under)
		b.CBr(cont, travBody, shade)

		// Visit a node: box test, then leaf or internal.
		b.SetBlock(travBody)
		nv := b.Load(b.AddI(node, nodeBase), 0)
		isLeaf := b.SetLTI(b.ModI(nv, 1000), int64(v.leafP*1000))
		b.CBr(isLeaf, intersect, travNext)

		// Leaf: primitive intersection — the expensive common path the
		// detector should converge (Iteration Delay inside the walk).
		b.SetBlock(intersect)
		t := b.ItoF(b.AndI(nv, 1023))
		t = b.FMulI(t, 0.001)
		t = heavyFlops(b, t, hitT, v.shadeCost)
		b.FMovTo(hitT, b.FMinOp(hitT, b.FAbs(t)))
		b.Br(travNext)

		// Internal: descend to the child selected by the ray sign.
		b.SetBlock(travNext)
		b.MovTo(node, b.ModI(b.Add(b.ShrI(nv, 10), depth), optixNodes))
		b.MovTo(depth, b.AddI(depth, 1))
		b.Br(travHeader)

		// Epilog: shade with the closest hit.
		b.SetBlock(shade)
		b.FMovTo(radiance, b.FAdd(radiance, b.FDiv(b.FConst(1.0), b.FAddI(hitT, 1.0))))
		b.MovTo(ray, b.AddI(ray, 1))
		b.Br(rayHeader)

		b.SetBlock(done)
		b.FStore(tid, 0, radiance)
		b.Exit()
		b.Finish()

		mem := make([]uint64, m.MemWords)
		r := newTableRNG(cfg.Seed)
		tableRand(mem, int(nodeBase), optixNodes, func(i int) uint64 {
			return uint64(r.Int63())
		})
		return &Instance{Module: m, Kernel: f.Name, Threads: cfg.Threads, Memory: mem, Seed: cfg.Seed}
	}
}

func init() {
	for _, v := range optixVariants {
		v := v
		register(&Workload{
			Name: v.name,
			Description: fmt.Sprintf("An OptiX-style ray tracing trace kernel (%s query mix): "+
				"BVH traversal with divergent depth and an expensive leaf-intersection path (auto-detected).", v.name[6:]),
			Pattern:   "iteration-delay",
			Annotated: false,
			BuildFn:   buildOptix(v),
		})
	}
}
