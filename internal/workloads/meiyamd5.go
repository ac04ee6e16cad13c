package workloads

import (
	"specrecon/internal/ir"
)

// MeiyaMD5: "performs Message-Digest algorithm 5 (MD5) hash reverses."
// (Table 2, [29].) Section 5.4 describes it as containing "a
// load-imbalanced, compute-heavy inner loop making it the ideal candidate
// for Loop Merge".
//
// Each thread tests a batch of candidate passwords. Candidate lengths are
// drawn from a skewed distribution, and the digest loop runs a number of
// MD5-style rounds proportional to the padded length — the imbalanced,
// integer-compute-heavy inner loop. This workload carries NO manual
// annotation: it is a target of the automatic detector (Figure 10), which
// must find the loop-merge opportunity by itself.
const (
	meiyaMinRounds = 4
	meiyaMaxRounds = 96
)

func buildMeiyaMD5(cfg BuildConfig) *Instance {
	cfg = cfg.withDefaults(16)

	m := ir.NewModule("meiyamd5")
	m.MemWords = cfg.Threads + 8

	f := m.NewFunction("md5_reverse_kernel")
	b := ir.NewBuilder(f)

	// nextCand is the prolog, compare the epilog.
	bl := b.Blocks("entry", "outer_header", "next_candidate", "round_header", "round_body", "compare", "done")
	entry, outerHeader, nextCand, roundHeader, roundBody, compare, done := bl[0], bl[1], bl[2], bl[3], bl[4], bl[5], bl[6]

	b.SetBlock(entry)
	tid := b.Tid()
	cand := b.Reg()
	b.ConstTo(cand, 0)
	nCands := b.Const(int64(cfg.Tasks))
	hits := b.Reg()
	b.ConstTo(hits, 0)
	digest := b.Reg() // running fold of candidate digests, for output
	b.ConstTo(digest, 0)
	b.Br(outerHeader)

	b.SetBlock(outerHeader)
	more := b.SetLT(cand, nCands)
	b.CBr(more, nextCand, done)

	// Prolog: derive the next candidate and its padded round count.
	// Length distribution is skewed: mostly short, occasionally long.
	b.SetBlock(nextCand)
	seed := b.Rand()
	short := b.AddI(b.ModI(seed, 12), meiyaMinRounds)
	long := b.AddI(b.ModI(b.ShrI(seed, 17), meiyaMaxRounds-48), 48)
	isLong := b.SetEQI(b.ModI(b.ShrI(seed, 40), 5), 0) // ~20% long
	rounds := b.Reg()
	b.Emit(ir.Instr{Op: ir.OpSelect, Dst: rounds, A: isLong, B: long, C: short})
	state := b.Reg()
	b.MovTo(state, b.XorI(seed, 0x67452301))
	k := b.Reg()
	b.ConstTo(k, 0)
	b.Br(roundHeader)

	b.SetBlock(roundHeader)
	cont := b.SetLT(k, rounds)
	b.CBr(cont, roundBody, compare)

	// Round body: MD5-flavoured integer mixing, the compute-heavy
	// imbalanced inner loop.
	b.SetBlock(roundBody)
	mixed := heavyInt(b, state, k, 12)
	b.MovTo(state, mixed)
	b.MovTo(k, b.AddI(k, 1))
	b.Br(roundHeader)

	// Epilog: compare against the target digest and fold the state
	// into the running digest (so the kernel's output witnesses every
	// candidate even when no reversal is found).
	b.SetBlock(compare)
	match := b.SetEQI(b.AndI(state, 0xffff), 0x1234)
	b.MovTo(hits, b.Add(hits, match))
	b.MovTo(digest, b.Xor(digest, state))
	b.MovTo(cand, b.AddI(cand, 1))
	b.Br(outerHeader)

	b.SetBlock(done)
	out := b.Or(b.ShlI(hits, 48), b.AndI(digest, 0xffffffffffff))
	b.Store(tid, 0, out)
	b.Exit()
	b.Finish()

	mem := make([]uint64, m.MemWords)
	return &Instance{Module: m, Kernel: f.Name, Threads: cfg.Threads, Memory: mem, Seed: cfg.Seed}
}

func init() {
	register(&Workload{
		Name:        "meiyamd5",
		Description: "Performs MD5 hash reverses; a load-imbalanced, compute-heavy inner loop makes it the ideal candidate for Loop Merge (auto-detected).",
		Pattern:     "loop-merge",
		Annotated:   false,
		BuildFn:     buildMeiyaMD5,
	})
}
