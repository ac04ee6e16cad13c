package workloads

import (
	"specrecon/internal/ir"
)

// MUMmer: "a parallel sequence alignment kernel used for genome
// sequencing." (Table 2, [25].)
//
// Each thread aligns a batch of query reads against a reference encoded
// as a suffix-link table in memory. The match loop chases table links —
// one data-dependent gather per matched base — until the query mismatches,
// so the trip count is the match length: data-dependent and divergent.
// Matching is memory-dominated with a little bookkeeping compute, and the
// epilog records the maximal-match result.
const (
	mummerTable  = 1 << 14
	mummerMaxLen = 64
	mummerMatchP = 0.80 // per-base continue probability encoded in the table
)

func buildMUMmer(cfg BuildConfig) *Instance {
	cfg = cfg.withDefaults(16)
	tabBase := int64(cfg.Threads)

	m := ir.NewModule("mummer")
	m.MemWords = int(tabBase) + 2*mummerTable

	f := m.NewFunction("mummer_match_kernel")
	b := ir.NewBuilder(f)

	// loadQuery is the prolog, record the epilog.
	bl := b.Blocks("entry", "outer_header", "load_query", "match_header", "match_body", "record", "done")
	entry, outerHeader, loadQuery, matchHeader, matchBody, record, done := bl[0], bl[1], bl[2], bl[3], bl[4], bl[5], bl[6]

	b.SetBlock(entry)
	tid := b.Tid()
	q := b.Reg()
	b.ConstTo(q, 0)
	nQueries := b.Const(int64(cfg.Tasks))
	bestSum := b.Reg()
	b.ConstTo(bestSum, 0)
	b.Br(outerHeader)

	b.SetBlock(outerHeader)
	more := b.SetLT(q, nQueries)
	b.CBr(more, loadQuery, done)

	// Prolog: pick a query seed and reset the walker.
	b.SetBlock(loadQuery)
	node := b.ModI(b.Rand(), mummerTable)
	length := b.Reg()
	b.ConstTo(length, 0)
	maxLen := b.Const(mummerMaxLen)
	b.PredictThreshold(matchBody, 8)
	b.Br(matchHeader)

	// Continue while the table says the suffix keeps matching.
	b.SetBlock(matchHeader)
	flagAddr := b.AddI(b.Add(node, node), tabBase) // pair: [link, flag]
	flag := b.Load(flagAddr, 1)
	under := b.SetLT(length, maxLen)
	cont := b.And(flag, under)
	b.CBr(cont, matchBody, record)

	// Match step: chase the suffix link (data-dependent gather) and
	// fold the base into the running score.
	b.SetBlock(matchBody)
	linkAddr := b.AddI(b.Add(node, node), tabBase)
	next := b.Load(linkAddr, 0)
	score := b.Add(b.MulI(node, 31), length)
	score = b.Xor(score, b.ShrI(score, 5))
	b.MovTo(node, b.ModI(b.Add(next, score), mummerTable))
	b.MovTo(length, b.AddI(length, 1))
	b.Br(matchHeader)

	// Epilog: record the maximal match.
	b.SetBlock(record)
	b.MovTo(bestSum, b.Add(bestSum, length))
	b.MovTo(q, b.AddI(q, 1))
	b.Br(outerHeader)

	b.SetBlock(done)
	b.Store(tid, 0, bestSum)
	b.Exit()
	b.Finish()

	mem := make([]uint64, m.MemWords)
	r := newTableRNG(cfg.Seed)
	for i := 0; i < mummerTable; i++ {
		mem[int(tabBase)+2*i] = uint64(r.Intn(mummerTable)) // suffix link
		flag := uint64(0)
		if r.Float64() < mummerMatchP {
			flag = 1
		}
		mem[int(tabBase)+2*i+1] = flag
	}
	return &Instance{Module: m, Kernel: f.Name, Threads: cfg.Threads, Memory: mem, Seed: cfg.Seed}
}

func init() {
	register(&Workload{
		Name:        "mummer",
		Description: "A parallel sequence alignment kernel used for genome sequencing.",
		Pattern:     "loop-merge",
		Annotated:   true,
		BuildFn:     buildMUMmer,
	})
}
