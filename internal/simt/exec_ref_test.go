package simt

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"testing"

	"specrecon/internal/ir"
	"specrecon/internal/rng"
)

// refLane is the lane-major machine state the reference evaluator runs
// over: one lane's own register slices, indexed by register alone, beside
// its ids and RNG stream. The engine keeps none of this per lane any
// more, so comparing against it also pins execData's column indexing.
type refLane struct {
	id, lane, cta, ctatid int
	regs                  []int64
	fregs                 []float64
	rng                   rng.Source
}

// refExecScalar runs one data instruction for one lane: the per-lane
// evaluator the engine used before execData dispatched once per issue,
// kept verbatim as the reference the per-opcode loops are pinned to.
func (ws *warpState) refExecScalar(ln *refLane, in *ir.Instr) error {
	s := ws.sim

	// Integer B operand with optional immediate.
	ib := func() int64 {
		if in.BImm {
			return in.Imm
		}
		return ln.regs[in.B]
	}
	// Float B operand with optional immediate.
	fb := func() float64 {
		if in.BImm {
			return in.FImm
		}
		return ln.fregs[in.B]
	}
	boolToInt := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	addr := func() (int64, error) {
		a := ln.regs[in.A] + in.Imm
		if a < 0 || a >= int64(s.memLen) {
			return 0, fmt.Errorf("memory access out of bounds: address %d (memory %d words)", a, s.memLen)
		}
		return a, nil
	}
	// saddr bounds-checks a CTA shared-memory address; a module without
	// a sharedwords declaration has a zero-length segment, so any shared
	// access is rejected.
	saddr := func() (int64, error) {
		a := ln.regs[in.A] + in.Imm
		if a < 0 || a >= int64(len(ws.cta.shared)) {
			return 0, fmt.Errorf("shared memory access out of bounds: address %d (shared %d words)", a, len(ws.cta.shared))
		}
		return a, nil
	}
	switch in.Op {
	case ir.OpConst:
		ln.regs[in.Dst] = in.Imm
	case ir.OpMov:
		ln.regs[in.Dst] = ln.regs[in.A]
	case ir.OpAdd:
		ln.regs[in.Dst] = ln.regs[in.A] + ib()
	case ir.OpSub:
		ln.regs[in.Dst] = ln.regs[in.A] - ib()
	case ir.OpMul:
		ln.regs[in.Dst] = ln.regs[in.A] * ib()
	case ir.OpDiv:
		if d := ib(); d != 0 {
			ln.regs[in.Dst] = ln.regs[in.A] / d
		} else {
			ln.regs[in.Dst] = 0
		}
	case ir.OpMod:
		if d := ib(); d != 0 {
			ln.regs[in.Dst] = ln.regs[in.A] % d
		} else {
			ln.regs[in.Dst] = 0
		}
	case ir.OpMin:
		a, b := ln.regs[in.A], ib()
		if a < b {
			ln.regs[in.Dst] = a
		} else {
			ln.regs[in.Dst] = b
		}
	case ir.OpMax:
		a, b := ln.regs[in.A], ib()
		if a > b {
			ln.regs[in.Dst] = a
		} else {
			ln.regs[in.Dst] = b
		}
	case ir.OpAnd:
		ln.regs[in.Dst] = ln.regs[in.A] & ib()
	case ir.OpOr:
		ln.regs[in.Dst] = ln.regs[in.A] | ib()
	case ir.OpXor:
		ln.regs[in.Dst] = ln.regs[in.A] ^ ib()
	case ir.OpShl:
		ln.regs[in.Dst] = ln.regs[in.A] << (uint64(ib()) & 63)
	case ir.OpShr:
		ln.regs[in.Dst] = int64(uint64(ln.regs[in.A]) >> (uint64(ib()) & 63))
	case ir.OpNot:
		ln.regs[in.Dst] = ^ln.regs[in.A]
	case ir.OpNeg:
		ln.regs[in.Dst] = -ln.regs[in.A]
	case ir.OpSetEQ:
		ln.regs[in.Dst] = boolToInt(ln.regs[in.A] == ib())
	case ir.OpSetNE:
		ln.regs[in.Dst] = boolToInt(ln.regs[in.A] != ib())
	case ir.OpSetLT:
		ln.regs[in.Dst] = boolToInt(ln.regs[in.A] < ib())
	case ir.OpSetLE:
		ln.regs[in.Dst] = boolToInt(ln.regs[in.A] <= ib())
	case ir.OpSetGT:
		ln.regs[in.Dst] = boolToInt(ln.regs[in.A] > ib())
	case ir.OpSetGE:
		ln.regs[in.Dst] = boolToInt(ln.regs[in.A] >= ib())
	case ir.OpSelect:
		if ln.regs[in.A] != 0 {
			ln.regs[in.Dst] = ln.regs[in.B]
		} else {
			ln.regs[in.Dst] = ln.regs[in.C]
		}

	case ir.OpFConst:
		ln.fregs[in.Dst] = in.FImm
	case ir.OpFMov:
		ln.fregs[in.Dst] = ln.fregs[in.A]
	case ir.OpFAdd:
		ln.fregs[in.Dst] = ln.fregs[in.A] + fb()
	case ir.OpFSub:
		ln.fregs[in.Dst] = ln.fregs[in.A] - fb()
	case ir.OpFMul:
		ln.fregs[in.Dst] = ln.fregs[in.A] * fb()
	case ir.OpFDiv:
		ln.fregs[in.Dst] = ln.fregs[in.A] / fb()
	case ir.OpFMin:
		ln.fregs[in.Dst] = math.Min(ln.fregs[in.A], fb())
	case ir.OpFMax:
		ln.fregs[in.Dst] = math.Max(ln.fregs[in.A], fb())
	case ir.OpFNeg:
		ln.fregs[in.Dst] = -ln.fregs[in.A]
	case ir.OpFAbs:
		ln.fregs[in.Dst] = math.Abs(ln.fregs[in.A])
	case ir.OpFSqrt:
		ln.fregs[in.Dst] = math.Sqrt(ln.fregs[in.A])
	case ir.OpFExp:
		ln.fregs[in.Dst] = math.Exp(ln.fregs[in.A])
	case ir.OpFLog:
		ln.fregs[in.Dst] = math.Log(ln.fregs[in.A])
	case ir.OpFSin:
		ln.fregs[in.Dst] = math.Sin(ln.fregs[in.A])
	case ir.OpFCos:
		ln.fregs[in.Dst] = math.Cos(ln.fregs[in.A])
	case ir.OpFMA:
		ln.fregs[in.Dst] = ln.fregs[in.A]*ln.fregs[in.B] + ln.fregs[in.C]
	case ir.OpFSetEQ:
		ln.regs[in.Dst] = boolToInt(ln.fregs[in.A] == fb())
	case ir.OpFSetNE:
		ln.regs[in.Dst] = boolToInt(ln.fregs[in.A] != fb())
	case ir.OpFSetLT:
		ln.regs[in.Dst] = boolToInt(ln.fregs[in.A] < fb())
	case ir.OpFSetLE:
		ln.regs[in.Dst] = boolToInt(ln.fregs[in.A] <= fb())
	case ir.OpFSetGT:
		ln.regs[in.Dst] = boolToInt(ln.fregs[in.A] > fb())
	case ir.OpFSetGE:
		ln.regs[in.Dst] = boolToInt(ln.fregs[in.A] >= fb())
	case ir.OpItoF:
		ln.fregs[in.Dst] = float64(ln.regs[in.A])
	case ir.OpFtoI:
		ln.regs[in.Dst] = int64(ln.fregs[in.A])

	case ir.OpTid:
		ln.regs[in.Dst] = int64(ln.id)
	case ir.OpLane:
		ln.regs[in.Dst] = int64(ln.lane)
	case ir.OpNumThreads:
		ln.regs[in.Dst] = int64(s.cfg.Threads)
	case ir.OpCTAId:
		ln.regs[in.Dst] = int64(ln.cta)
	case ir.OpCTATid:
		ln.regs[in.Dst] = int64(ln.ctatid)
	case ir.OpCTASize:
		ln.regs[in.Dst] = int64(s.ctaSize)
	case ir.OpRand:
		ln.regs[in.Dst] = ln.rng.Int63()
	case ir.OpFRand:
		ln.fregs[in.Dst] = ln.rng.Float64()

	case ir.OpLoad:
		a, err := addr()
		if err != nil {
			return err
		}
		ln.regs[in.Dst] = int64(s.loadWord(a))
	case ir.OpStore:
		a, err := addr()
		if err != nil {
			return err
		}
		s.storeWord(a, uint64(ib()))
	case ir.OpFLoad:
		a, err := addr()
		if err != nil {
			return err
		}
		ln.fregs[in.Dst] = math.Float64frombits(s.loadWord(a))
	case ir.OpFStore:
		a, err := addr()
		if err != nil {
			return err
		}
		s.storeWord(a, math.Float64bits(fb()))
	case ir.OpAtomAdd:
		a, err := addr()
		if err != nil {
			return err
		}
		old := int64(s.loadWord(a))
		s.storeWord(a, uint64(old+ib()))
		ln.regs[in.Dst] = old
	case ir.OpFAtomAdd:
		a, err := addr()
		if err != nil {
			return err
		}
		old := math.Float64frombits(s.loadWord(a))
		s.storeWord(a, math.Float64bits(old+fb()))
		ln.fregs[in.Dst] = old

	case ir.OpSharedLoad:
		a, err := saddr()
		if err != nil {
			return err
		}
		ln.regs[in.Dst] = int64(ws.cta.shared[a])
		s.metrics.SharedAccesses++
	case ir.OpSharedStore:
		a, err := saddr()
		if err != nil {
			return err
		}
		ws.cta.shared[a] = uint64(ib())
		s.metrics.SharedAccesses++
	case ir.OpFSharedLoad:
		a, err := saddr()
		if err != nil {
			return err
		}
		ln.fregs[in.Dst] = math.Float64frombits(ws.cta.shared[a])
		s.metrics.SharedAccesses++
	case ir.OpFSharedStore:
		a, err := saddr()
		if err != nil {
			return err
		}
		ws.cta.shared[a] = math.Float64bits(fb())
		s.metrics.SharedAccesses++

	case ir.OpArrived:
		ln.regs[in.Dst] = int64(bits.OnesCount32(ws.waiting[in.Bar]))
	case ir.OpNop:
		// nothing
	default:
		return fmt.Errorf("unhandled opcode %s", in.Op)
	}
	return nil
}

// refExecData is the old issue-loop shape around refExecScalar: lanes in
// ascending order, stopping at the first error.
func (ws *warpState) refExecData(lanes *[ir.WarpWidth]refLane, in *ir.Instr, mask uint32) (int, error) {
	for l := 0; l < ir.WarpWidth; l++ {
		if mask&(1<<l) == 0 {
			continue
		}
		if err := ws.refExecScalar(&lanes[l], in); err != nil {
			return l, err
		}
	}
	return 0, nil
}

// execCase is one instruction form the equivalence test runs.
type execCase struct {
	name string
	in   ir.Instr
	// oob plants out-of-range addresses in the A register of two lanes.
	oob bool
}

// execCases builds the instruction forms for op: register and (where
// the opcode takes one) immediate B, with the immediates that hit the
// edge cases — zero divisors, shift counts >= 64, NaN — and in-bounds
// and out-of-bounds address forms for the memory opcodes.
func execCases(op ir.Opcode) []execCase {
	sig := ir.OperandFiles(op)
	base := ir.Instr{Op: op, Dst: 1, A: 2, B: 3, C: 4, Bar: 0, Imm: 3, FImm: 0.5}
	cases := []execCase{{name: "reg", in: base}}
	if sig.BMayImm {
		for _, imm := range []int64{0, 1, -1, 7, 64, 70, math.MinInt64} {
			in := base
			in.B, in.BImm, in.Imm = ir.NoReg, true, imm
			in.FImm = float64(imm) / 4
			cases = append(cases, execCase{name: fmt.Sprintf("imm%d", imm), in: in})
		}
		in := base
		in.B, in.BImm, in.FImm = ir.NoReg, true, math.NaN()
		cases = append(cases, execCase{name: "immNaN", in: in})
	}
	if op.IsMemory() || op.IsSharedMemory() {
		cases = append(cases, execCase{name: "oob", in: base, oob: true})
	}
	return cases
}

// TestExecDataMatchesPerLaneReference pins execData's per-opcode loops
// to the per-lane evaluator they replaced, over every opcode the
// reference handles: same registers, memory, shared memory, RNG streams
// and counters afterwards, and on a fault the same message with the same
// lane reported first. An opcode execData forgot (a default: that does
// nothing) leaves its destination unwritten and fails the comparison.
// The reference keeps its registers lane-major (regs[l][r]) while the
// engine's files are column-major (regs[r*WarpWidth+l]), and the two
// files differ in size, so a swapped index or a column taken with the
// wrong stride fails it too. The warp is warp 1 of CTA 1 of a grid, so
// the four thread-id opcodes all read different values.
func TestExecDataMatchesPerLaneReference(t *testing.T) {
	const nregs, nfregs = 6, 5
	mod := asm(t, fmt.Sprintf(`module t memwords=96 sharedwords=48
func @k nregs=%d nfregs=%d {
e:
  exit
}
`, nregs, nfregs))
	newWarp := func() *warpState {
		s, err := newSim(mod, Config{Grid: 2, CTASize: 3 * ir.WarpWidth, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		cta := s.newCTA(1, s.ctaSize)
		return s.newCTAWarp(cta, 1)
	}
	got, want := newWarp(), newWarp()
	var ref [ir.WarpWidth]refLane
	for l := range ref {
		ref[l] = refLane{
			id: 4*ir.WarpWidth + l, lane: l, cta: 1, ctatid: ir.WarpWidth + l,
			regs: make([]int64, nregs), fregs: make([]float64, nfregs),
		}
	}

	// Interesting operand values: zero divisors, shift counts at and
	// past the word size, extremes, and the float specials.
	ints := []int64{0, 1, -1, 2, 63, 64, 65, 127, -64, 1 << 40, math.MaxInt64, math.MinInt64}
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN(), 3.75}
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	// prime puts both warps into the same pseudo-random state.
	prime := func(c execCase) {
		for l := 0; l < ir.WarpWidth; l++ {
			for r := 0; r < nregs; r++ {
				iv := int64(next())
				if next()%3 == 0 {
					iv = ints[next()%uint64(len(ints))]
				}
				got.regs[r*ir.WarpWidth+l], ref[l].regs[r] = iv, iv
			}
			for r := 0; r < nfregs; r++ {
				fv := math.Float64frombits(next())
				if next()%3 == 0 {
					fv = floats[next()%uint64(len(floats))]
				}
				got.fregs[r*ir.WarpWidth+l], ref[l].fregs[r] = fv, fv
			}
			if c.in.Op.IsMemory() || c.in.Op.IsSharedMemory() {
				// In range for both segments with Imm = 3; every fourth
				// lane shares an address so atomics see lane order.
				adr := int64(l &^ 3)
				if c.oob && l == 9 {
					adr = 1000
				}
				if c.oob && l == 21 {
					adr = -40
				}
				got.regs[int(c.in.A)*ir.WarpWidth+l], ref[l].regs[c.in.A] = adr, adr
			}
			seed := next()
			got.rngs[l].Reseed(seed, uint64(l))
			ref[l].rng.Reseed(seed, uint64(l))
		}
		for i := range got.sim.mem {
			v := next()
			got.sim.mem[i], want.sim.mem[i] = v, v
		}
		for i := range got.cta.shared {
			v := next()
			got.cta.shared[i], want.cta.shared[i] = v, v
		}
		w := uint32(next())
		got.waiting[c.in.Bar], want.waiting[c.in.Bar] = w, w
	}

	handled := 0
	for op := ir.Opcode(1); !strings.HasPrefix(op.String(), "op("); op++ {
		for _, c := range execCases(op) {
			for _, mask := range []uint32{1 << 7, 0xaaaaaaaa, 0x00300200, 0xffffffff} {
				name := fmt.Sprintf("%s/%s/%08x", op, c.name, mask)
				prime(c)
				in := c.in
				wantLane, wantErr := want.refExecData(&ref, &in, mask)
				gotLane, gotErr := got.execData(&in, mask)
				if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && (wantErr.Error() != gotErr.Error() || wantLane != gotLane)) {
					t.Fatalf("%s: execData = lane %d, %v; reference = lane %d, %v", name, gotLane, gotErr, wantLane, wantErr)
				}
				if wantErr == nil {
					handled++
				}
				for l := 0; l < ir.WarpWidth; l++ {
					w := &ref[l]
					for r := range w.regs {
						if g := got.regs[r*ir.WarpWidth+l]; g != w.regs[r] {
							t.Fatalf("%s: lane %d r%d = %#x, reference %#x", name, l, r, g, w.regs[r])
						}
					}
					for r := range w.fregs {
						if g := got.fregs[r*ir.WarpWidth+l]; math.Float64bits(g) != math.Float64bits(w.fregs[r]) {
							t.Fatalf("%s: lane %d f%d = %v, reference %v", name, l, r, g, w.fregs[r])
						}
					}
					if got.rngs[l] != w.rng {
						t.Fatalf("%s: lane %d RNG stream diverged", name, l)
					}
				}
				for i := range want.sim.mem {
					if got.sim.mem[i] != want.sim.mem[i] {
						t.Fatalf("%s: mem[%d] = %#x, reference %#x", name, i, got.sim.mem[i], want.sim.mem[i])
					}
				}
				for i := range want.cta.shared {
					if got.cta.shared[i] != want.cta.shared[i] {
						t.Fatalf("%s: shared[%d] = %#x, reference %#x", name, i, got.cta.shared[i], want.cta.shared[i])
					}
				}
				if got.sim.metrics.SharedAccesses != want.sim.metrics.SharedAccesses {
					t.Fatalf("%s: SharedAccesses = %d, reference %d", name, got.sim.metrics.SharedAccesses, want.sim.metrics.SharedAccesses)
				}
			}
		}
	}
	// Every data opcode of the ISA: if this count drops, the reference
	// stopped covering something and the test went vacuous for it.
	if handled < 60*4 {
		t.Fatalf("only %d passing (opcode form, mask) cases ran", handled)
	}
}

// loadWord and storeWord are the per-word global-memory access the
// reference runs on, as the engine had it before execGlobal picked the
// memory once per instruction: a branch on the representation per word
// and, on a CoW fork, a page-table lookup per word.
func (s *sim) loadWord(a int64) uint64 {
	if c := s.cow; c != nil {
		if w := c.pages[a>>cowPageShift].words; w != nil {
			return w[a&cowPageMask]
		}
		return c.base[a]
	}
	return s.mem[a]
}

func (s *sim) storeWord(a int64, v uint64) {
	c := s.cow
	if c == nil {
		s.mem[a] = v
		return
	}
	p := &c.pages[a>>cowPageShift]
	if p.words == nil {
		c.materialize(p, int(a>>cowPageShift))
	}
	off := a & cowPageMask
	p.words[off] = v
	p.dirty[off>>6] |= 1 << (uint(off) & 63)
}
