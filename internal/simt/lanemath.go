package simt

import (
	"math"
	"math/bits"
)

// Lane arithmetic the host penalises. An x86 core multiplies a zero or
// subnormal operand, or a product that lands below the normal range,
// through a microcode assist: ≈ 55 ns a lane against under 1 ns. The
// corpus's fld reads 16-bit integers as float64 bit patterns — subnormals
// — so execData sends those lanes of fmul and fma's product to mulSoft,
// which gives the same bits on integers. Everything else stays on the
// hardware (DESIGN.md §8, "Lane arithmetic the host penalises").

// fexp is x's biased exponent field.
func fexp(x float64) uint64 { return math.Float64bits(x) >> 52 & 0x7ff }

// assisted reports whether a product of operands with biased exponents
// ea and eb may take the host's assist: an operand is zero or subnormal,
// or the product may fall below the normal range. For normal operands
// it lies in [2^(ea+eb-2046), 2^(ea+eb-2044)), normal from ea+eb = 1024
// on; the gate keeps one exponent of margin.
func assisted(ea, eb uint64) bool { return ea == 0 || eb == 0 || ea+eb <= 1024 }

// mulSoft returns a*b, bit for bit what the hardware gives on every
// input, computed on integers: the exact 106-bit product of the
// significands, rounded once to nearest, ties to even, at the result's
// exponent or at 2^-1074 for a subnormal result.
func mulSoft(a, b float64) float64 {
	ua, ub := math.Float64bits(a), math.Float64bits(b)
	sign := (ua ^ ub) & (1 << 63)
	switch {
	case ua&(0x7ff<<52) == 0x7ff<<52 || ub&(0x7ff<<52) == 0x7ff<<52:
		return a * b // NaN or Inf: no assist, and NaN payloads are the hardware's
	case ua<<1 == 0 || ub<<1 == 0:
		return math.Float64frombits(sign)
	}
	ma, ea := unpack(ua)
	mb, eb := unpack(ub)
	// P = ma·mb lies in [2^104, 2^106). h holds its top 64 bits, the
	// leading one at bit 63, sticky whether any bit below them is set,
	// and be is the result's biased exponent.
	hi, lo := bits.Mul64(ma, mb)
	k := bits.LeadingZeros64(hi)
	h, sticky := hi<<k|lo>>(64-k), lo<<k != 0
	// Keep 53 bits of h, or fewer down to the 2^-1074 grid.
	be, t := ea+eb-1000-k, 11
	if be < 1 {
		t, be = 12-be, 1
	}
	switch {
	case be >= 0x7ff:
		return math.Float64frombits(sign | 0x7ff<<52)
	case t > 64:
		return math.Float64frombits(sign)
	}
	q, rest := h>>t, h<<(64-t)
	if rest > 1<<63 || rest == 1<<63 && (sticky || q&1 != 0) {
		q++
	}
	// q carries the leading one into the exponent field, so a round up
	// to the next binade, to the least normal or to Inf composes itself.
	return math.Float64frombits(sign | (uint64(be-1)<<52 + q))
}

// unpack splits the bits of a finite non-zero float into a significand
// with its leading one at bit 52 and the matching biased exponent, so
// the value is m·2^(e-1075); a subnormal's exponent goes below 1.
func unpack(u uint64) (m uint64, e int) {
	m, e = u&(1<<52-1), int(u>>52&0x7ff)
	if e != 0 {
		return m | 1<<52, e
	}
	k := bits.LeadingZeros64(m) - 11
	return m << k, 1 - k
}

// ftoi is the ftoi instruction's conversion: int64(x) truncated toward
// zero, and math.MinInt64 for NaN, ±Inf and every x out of int64's
// range. The Go spec leaves that case to the implementation (arm64
// saturates); this is amd64's answer, pinned.
func ftoi(x float64) int64 {
	if x >= -0x1p63 && x < 0x1p63 {
		return int64(x)
	}
	return math.MinInt64
}
