package simt

import (
	"math"
	"runtime"
	"testing"
)

// sameAsHardware fails t unless mulSoft(a, b) has the bits of a*b.
func sameAsHardware(t *testing.T, a, b float64) {
	t.Helper()
	if got, want := math.Float64bits(mulSoft(a, b)), math.Float64bits(a*b); got != want {
		t.Fatalf("mulSoft(%#x, %#x) = %#x, hardware %#x", math.Float64bits(a), math.Float64bits(b), got, want)
	}
}

// TestMulSoftIsHardware pins mulSoft to the host's multiply, bit for
// bit, on the edges of the integer path — signed zeros, the subnormal
// extremes, products rounding to exactly the least normal, ties on the
// 2^-1074 grid both ways, underflow to zero, NaN and Inf beside
// subnormals, overflow — and on ten million seeded pairs of each class
// of operands, gated or not: correctness may not depend on the gate.
// The gate is checked the other way: no zero or subnormal product gets
// past it to the hardware.
func TestMulSoftIsHardware(t *testing.T) {
	f := math.Float64frombits
	minSub, maxSub, minNorm := f(1), f(1<<52-1), f(1<<52)
	below1, above1 := math.Nextafter(1, 0), math.Nextafter(1, 2)
	edges := []float64{
		0, math.Copysign(0, -1), minSub, -minSub, maxSub, -maxSub, minNorm, -minNorm,
		2 * minSub, 3 * minSub, 5 * minSub, f(1 << 51), f(1<<51 + 1),
		0.25, 0.5, 0.75, 1.5, below1, 1, above1, -1, 2, 1e-200, -1e-200, 1e-300,
		0x1p-537, 0x1p-538, 0x1p511, 1e300, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, a := range edges {
		for _, b := range edges {
			sameAsHardware(t, a, b)
		}
	}
	// The cases the table is for, named.
	for _, c := range []struct{ a, b, want float64 }{
		{maxSub, above1, minNorm},            // rounds up to exactly the least normal
		{below1, minNorm, minNorm},           // a tie below it, to even
		{minSub, 0.5, 0},                     // a tie at the grid, down to even
		{3 * minSub, 0.5, 2 * minSub},        // a tie at the grid, up to even
		{minSub, 0.75, minSub},               // above the tie
		{minSub, 0.25, 0},                    // below half the grid
		{-minSub, 0.5, math.Copysign(0, -1)}, // underflow keeps the sign
		{1e-200, 1e-200, 0},
		{math.MaxFloat64, above1, math.Inf(1)}, // rounds up past MaxFloat64
		{-2, math.MaxFloat64, math.Inf(-1)},
	} {
		if got := mulSoft(c.a, c.b); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("mulSoft(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}

	state := uint64(0x2545f4914f6cdd1d)
	next := func() uint64 { // splitmix64
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	// withExp draws a float of biased exponent e (0: subnormal or zero).
	withExp := func(e uint64) float64 {
		r := next()
		return f(r&(1<<63) | e<<52 | r&(1<<52-1))
	}
	classes := []struct {
		name string
		draw func() (float64, float64)
	}{
		{"subnormal×any", func() (float64, float64) { return withExp(0), f(next()) }},
		{"subnormal×subnormal", func() (float64, float64) { return withExp(0), withExp(0) }},
		{"subnormal×huge", func() (float64, float64) { return withExp(0), withExp(1990 + next()%57) }},
		{"normal×normal near the least normal", func() (float64, float64) {
			ea := int(1 + next()%2046)
			eb := min(max(1024-ea+int(next()%64)-60, 1), 2046)
			return withExp(uint64(ea)), withExp(uint64(eb))
		}},
		{"any×any", func() (float64, float64) { return f(next()), f(next()) }},
	}
	n := 10_000_000
	if testing.Short() {
		n = 100_000
	}
	for _, c := range classes {
		for i := 0; i < n; i++ {
			a, b := c.draw()
			p := a * b
			if fexp(p) == 0 && !assisted(fexp(a), fexp(b)) {
				t.Fatalf("%s: the gate sends %v × %v = %v to the hardware", c.name, a, b, p)
			}
			if math.Float64bits(mulSoft(a, b)) != math.Float64bits(p) {
				t.Logf("%s, pair %d:", c.name, i)
				sameAsHardware(t, a, b)
			}
		}
	}
}

// FuzzMulSoft drives mulSoft against the host's multiply from the seeds
// in testdata/fuzz/FuzzMulSoft.
func FuzzMulSoft(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b uint64) {
		sameAsHardware(t, math.Float64frombits(a), math.Float64frombits(b))
	})
}

// TestFtoIOutOfRange pins ftoi where Go's int64(x) is
// implementation-dependent — NaN, ±Inf, out of range — to MinInt64, and
// in range to truncation, up to the largest float below 2^63; on amd64
// the pinned value is the hardware's.
func TestFtoIOutOfRange(t *testing.T) {
	below := math.Nextafter(0x1p63, 0)
	for _, c := range []struct {
		x    float64
		want int64
	}{
		{math.NaN(), math.MinInt64},
		{math.Inf(1), math.MinInt64},
		{math.Inf(-1), math.MinInt64},
		{1e19, math.MinInt64},
		{-1e19, math.MinInt64},
		{0x1p63, math.MinInt64},
		{-0x1p63, math.MinInt64},
		{below, 1<<63 - 1024},
		{-below, -(1<<63 - 1024)},
		{-2.75, -2},
		{2.75, 2},
	} {
		if got := ftoi(c.x); got != c.want {
			t.Errorf("ftoi(%v) = %d, want %d", c.x, got, c.want)
		}
		if runtime.GOARCH == "amd64" {
			if hw := int64(c.x); hw != c.want {
				t.Errorf("amd64 int64(%v) = %d, pinned %d", c.x, hw, c.want)
			}
		}
	}
}
