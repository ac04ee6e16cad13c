package ir

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

const sampleModule = `module sample memwords=256

func @helper nregs=2 nfregs=2 {
helper_entry:
  fadd f1, f0, #2.5
  fmov f0, f1
  ret
}

func @kernel nregs=8 nfregs=4 {
entry:
  .predict hot threshold=16
  tid r0
  const r1, #0
  fconst f0, #0.0
  br header
header:
  setlt r2, r1, #10
  cbr r2, body, done
body:
  frand f1
  fsetlt r3, f1, #0.25
  join b0
  cbr r3, hot, cold
hot:
  cancel b0
  waitn b1, 16
  join b1
  ld r4, [r0+32]
  fld f2, [r4]
  fma f3, f1, f2, f0
  fmov f0, f3
  call @helper
  br cold
cold:
  wait b0
  st [r0+64], r4
  atomadd r5, [r0], r4
  arrived r6, b1
  add r1, r1, #1
  br header
done:
  fst [r0], f0
  warpsync
  exit
}
`

func TestParsePrintRoundTrip(t *testing.T) {
	m, err := Parse(sampleModule)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	p1 := Print(m)
	m2, err := Parse(p1)
	if err != nil {
		t.Fatalf("Parse(Print): %v\n%s", err, p1)
	}
	p2 := Print(m2)
	if p1 != p2 {
		t.Fatalf("round trip unstable:\n--- first ---\n%s\n--- second ---\n%s", p1, p2)
	}
}

func TestParsePreservesStructure(t *testing.T) {
	m, err := Parse(sampleModule)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if m.Name != "sample" || m.MemWords != 256 {
		t.Fatalf("module header wrong: %q %d", m.Name, m.MemWords)
	}
	if len(m.Funcs) != 2 {
		t.Fatalf("want 2 functions, got %d", len(m.Funcs))
	}
	k := m.FuncByName("kernel")
	if k == nil {
		t.Fatal("kernel missing")
	}
	if len(k.Predictions) != 1 {
		t.Fatalf("want 1 prediction, got %d", len(k.Predictions))
	}
	p := k.Predictions[0]
	if p.At.Name != "entry" || p.Label.Name != "hot" || p.Threshold != 16 {
		t.Fatalf("prediction wrong: %+v", p)
	}
	hot := k.BlockByName("hot")
	if hot == nil || hot.Instrs[1].Op != OpWaitN || hot.Instrs[1].Imm != 16 {
		t.Fatalf("waitn not parsed: %+v", hot.Instrs[1])
	}
	body := k.BlockByName("body")
	term := body.Terminator()
	if term.Op != OpCBr || body.Succs[0].Name != "hot" || body.Succs[1].Name != "cold" {
		t.Fatalf("cbr successors wrong: %v", body.Succs)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"empty", "", "empty input"},
		{"no module", "func @f {", "expected 'module"},
		{"bad opcode", "module m\nfunc @f nregs=1 nfregs=0 {\ne:\n  bogus r0\n  exit\n}", "unknown opcode"},
		{"bad register", "module m\nfunc @f nregs=1 nfregs=0 {\ne:\n  mov x0, r0\n  exit\n}", "expected r-register"},
		{"undefined block", "module m\nfunc @f nregs=1 nfregs=0 {\ne:\n  br nowhere\n}", "undefined block"},
		{"unterminated", "module m\nfunc @f nregs=1 nfregs=0 {\ne:\n  exit", "unterminated function"},
		{"trailing operand", "module m\nfunc @f nregs=2 nfregs=0 {\ne:\n  mov r0, r1, r1\n  exit\n}", "trailing operands"},
		{"bad threshold", "module m\nfunc @f nregs=1 nfregs=0 {\ne:\n  waitn b0, x\n  exit\n}", "bad threshold"},
		{"instr before block", "module m\nfunc @f nregs=1 nfregs=0 {\n  exit\n}", "before any block"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestParseComments(t *testing.T) {
	src := "module m ; trailing comment\n" +
		"; full line comment\n" +
		"func @f nregs=1 nfregs=0 {\n" +
		"e: ; block comment\n" +
		"  tid r0 ; instr comment\n" +
		"  exit\n" +
		"}\n"
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse with comments: %v", err)
	}
	if m.Funcs[0].Entry().Instrs[0].Op != OpTid {
		t.Fatal("comment handling broke instruction parsing")
	}
}

// TestFormatInstrQuickRoundTrip is a property test: any well-formed ALU
// instruction survives a format/parse cycle.
func TestFormatInstrQuickRoundTrip(t *testing.T) {
	alu := []Opcode{OpAdd, OpSub, OpMul, OpDiv, OpMin, OpMax, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpSetEQ, OpSetNE, OpSetLT, OpSetLE, OpSetGT, OpSetGE}
	check := func(opIdx uint8, d, a, bb uint8, useImm bool, imm int64) bool {
		op := alu[int(opIdx)%len(alu)]
		in := Instr{Op: op, Dst: Reg(d % 16), A: Reg(a % 16), B: Reg(bb % 16), C: NoReg}
		if useImm {
			in.B = NoReg
			in.BImm = true
			in.Imm = imm
		}
		text := FormatInstr(&in, nil)
		parsed, succ, err := parseInstr(text)
		if err != nil || succ[0] != "" {
			t.Logf("parse %q: %v", text, err)
			return false
		}
		return parsed.Op == in.Op && parsed.Dst == in.Dst && parsed.A == in.A &&
			parsed.BImm == in.BImm && (in.BImm && parsed.Imm == in.Imm || !in.BImm && parsed.B == in.B)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestFloatImmRoundTrip checks float immediates survive formatting
// exactly (bit-for-bit) for finite values.
func TestFloatImmRoundTrip(t *testing.T) {
	check := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true // printer targets finite literals
		}
		in := Instr{Op: OpFConst, Dst: 0, A: NoReg, B: NoReg, C: NoReg, FImm: v}
		text := FormatInstr(&in, nil)
		parsed, _, err := parseInstr(text)
		if err != nil {
			t.Logf("parse %q: %v", text, err)
			return false
		}
		return math.Float64bits(parsed.FImm) == math.Float64bits(v)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryOperandForms(t *testing.T) {
	cases := []string{
		"ld r1, [r2]",
		"ld r1, [r2+8]",
		"ld r1, [r2-4]",
		"st [r0+1], r3",
		"fatomadd f1, [r2+3], f0",
	}
	for _, src := range cases {
		in, _, err := parseInstr(src)
		if err != nil {
			t.Errorf("parseInstr(%q): %v", src, err)
			continue
		}
		out := FormatInstr(&in, nil)
		in2, _, err := parseInstr(out)
		if err != nil {
			t.Errorf("re-parse of %q (from %q): %v", out, src, err)
			continue
		}
		if in != in2 {
			t.Errorf("%q round trip changed: %+v vs %+v", src, in, in2)
		}
	}
}
