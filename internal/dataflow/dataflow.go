// Package dataflow provides a small generic bitset dataflow solver plus
// the two analyses of the paper's section 4.2.1: joined-barrier analysis
// (equation 1, a forward may-analysis telling at each point whether a
// barrier has been joined and not yet cleared) and barrier live-range
// analysis (equation 2, a backward may-analysis telling whether a
// WaitBarrier lies ahead). Register liveness for the verifier and cost
// models reuses the same solver.
package dataflow

import (
	"math/bits"

	"specrecon/internal/cfg"
	"specrecon/internal/ir"
)

// Bits is a fixed-width bitset.
type Bits []uint64

// NewBits returns a bitset able to hold n bits.
func NewBits(n int) Bits { return make(Bits, (n+63)/64) }

func (b Bits) Set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b Bits) Clear(i int)    { b[i/64] &^= 1 << (i % 64) }
func (b Bits) Has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

// Copy copies src into b; both must have the same width.
func (b Bits) Copy(src Bits) { copy(b, src) }

// UnionWith ors src into b, reporting whether b changed.
func (b Bits) UnionWith(src Bits) bool {
	changed := false
	for i, w := range src {
		nw := b[i] | w
		if nw != b[i] {
			b[i] = nw
			changed = true
		}
	}
	return changed
}

// AndNot removes src's bits from b.
func (b Bits) AndNot(src Bits) {
	for i, w := range src {
		b[i] &^= w
	}
}

// Count returns the number of set bits.
func (b Bits) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Equal reports bit equality.
func (b Bits) Equal(o Bits) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit in ascending order.
func (b Bits) ForEach(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			i := bits.TrailingZeros64(w)
			fn(wi*64 + i)
			w &= w - 1
		}
	}
}

// Clone returns a copy of b.
func (b Bits) Clone() Bits {
	out := make(Bits, len(b))
	copy(out, b)
	return out
}

// Direction selects forward or backward propagation.
type Direction int

const (
	Forward Direction = iota
	Backward
)

// Problem describes a gen/kill union dataflow problem at block
// granularity: OUT = (IN − Kill) ∪ Gen for forward problems, and
// symmetrically for backward ones, with IN the union over predecessor
// OUTs (successor INs when backward).
type Problem struct {
	Dir     Direction
	NumBits int
	// Summarize composes b's instructions into its gen and kill sets.
	// Both rows arrive zeroed and NumBits wide.
	Summarize func(b *ir.Block, gen, kill Bits)
}

// Result holds the per-block IN and OUT sets of a solved problem, as
// rows of the slab Solve cut them from.
type Result struct {
	n, w int // blocks, words per row
	slab Bits
}

// In returns the IN set of the block with the given Block.Index.
func (r *Result) In(i int) Bits { return r.row(i) }

// Out returns the OUT set of the block with the given Block.Index.
func (r *Result) Out(i int) Bits { return r.row(r.n + i) }

func (r *Result) row(i int) Bits { return r.slab[i*r.w : (i+1)*r.w : (i+1)*r.w] }

// Solve iterates to a fixed point: RPO sweeps for a forward problem,
// reverse-RPO sweeps for a backward one, until a sweep changes nothing.
// Every row of the problem — IN, OUT, gen and kill of every block, and
// the sweep's scratch row — is cut from one slab, so a solve costs two
// allocations however many blocks the function has.
func Solve(f *ir.Function, info *cfg.Info, p Problem) *Result {
	n := len(f.Blocks)
	res := &Result{n: n, w: (p.NumBits + 63) / 64}
	res.slab = make(Bits, (4*n+1)*res.w)
	gen := func(i int) Bits { return res.row(2*n + i) }
	kill := func(i int) Bits { return res.row(3*n + i) }
	tmp := res.row(4 * n)
	for i, b := range f.Blocks {
		p.Summarize(b, gen(i), kill(i))
	}

	// meet is the side a block's set is joined into from its neighbours
	// (IN from predecessor OUTs when forward, OUT from successor INs when
	// backward); flow is the side the transfer function produces. Each
	// is the slab row its side starts at.
	meet, flow := 0, n
	if p.Dir == Backward {
		meet, flow = n, 0
	}
	for changed := true; changed; {
		changed = false
		for k := range info.RPO {
			b := info.RPO[k]
			if p.Dir == Backward {
				b = info.RPO[len(info.RPO)-1-k]
			}
			i := b.Index
			m := res.row(meet + i)
			clear(m)
			if p.Dir == Forward {
				for _, pr := range info.Preds[i] {
					m.UnionWith(res.row(flow + pr.Index))
				}
			} else {
				for _, s := range b.Succs {
					m.UnionWith(res.row(flow + s.Index))
				}
			}
			tmp.Copy(m)
			tmp.AndNot(kill(i))
			tmp.UnionWith(gen(i))
			if out := res.row(flow + i); !tmp.Equal(out) {
				out.Copy(tmp)
				changed = true
			}
		}
	}
	return res
}
