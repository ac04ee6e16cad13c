package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// The fmt-and-strings.Builder printer this package used before the
// append-based one in print.go, kept verbatim as the oracle of
// TestAppendPrinterMatchesReference. It is not a second printer: nothing
// outside the tests can reach it. Its one known difference is the bug
// print.go fixes — refFormatFloat renders NaN as "NaN.0", which Parse
// rejects — so the comparison sets hold no NaN immediate.

func refPrint(m *Module) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s memwords=%d", m.Name, m.MemWords)
	if m.SharedWords > 0 {
		fmt.Fprintf(&sb, " sharedwords=%d", m.SharedWords)
	}
	sb.WriteString("\n")
	for _, f := range m.Funcs {
		sb.WriteString("\n")
		refPrintFunctionTo(&sb, f)
	}
	return sb.String()
}

func refPrintFunction(f *Function) string {
	var sb strings.Builder
	refPrintFunctionTo(&sb, f)
	return sb.String()
}

func refPrintFunctionTo(sb *strings.Builder, f *Function) {
	fmt.Fprintf(sb, "func @%s nregs=%d nfregs=%d {\n", f.Name, f.NRegs, f.NFRegs)
	for _, b := range f.Blocks {
		fmt.Fprintf(sb, "%s:\n", b.Name)
		for _, p := range f.Predictions {
			if p.At != b {
				continue
			}
			if p.Callee != "" {
				fmt.Fprintf(sb, "  .predictcall @%s", p.Callee)
			} else {
				fmt.Fprintf(sb, "  .predict %s", p.Label.Name)
			}
			if p.Threshold != 0 {
				fmt.Fprintf(sb, " threshold=%d", p.Threshold)
			}
			sb.WriteString("\n")
		}
		for i := range b.Instrs {
			sb.WriteString("  ")
			sb.WriteString(refFormatInstr(&b.Instrs[i], b))
			sb.WriteString("\n")
		}
	}
	sb.WriteString("}\n")
}

func refFormatInstr(in *Instr, b *Block) string {
	info := &opTable[in.Op]
	var ops []string

	mem := func(addr Reg, off int64) string {
		if off == 0 {
			return fmt.Sprintf("[r%d]", addr)
		}
		return fmt.Sprintf("[r%d%+d]", addr, off)
	}
	regTok := func(r Reg, file regFile) string {
		if file == fileFloat {
			return fmt.Sprintf("f%d", r)
		}
		return fmt.Sprintf("r%d", r)
	}

	switch in.Op {
	case OpLoad, OpFLoad, OpSharedLoad, OpFSharedLoad:
		ops = []string{regTok(in.Dst, info.dst), mem(in.A, in.Imm)}
	case OpStore, OpFStore, OpSharedStore, OpFSharedStore:
		v := regTok(in.B, info.b)
		if in.BImm {
			v = refImmTok(in, info)
		}
		ops = []string{mem(in.A, in.Imm), v}
	case OpAtomAdd, OpFAtomAdd:
		v := regTok(in.B, info.b)
		if in.BImm {
			v = refImmTok(in, info)
		}
		ops = []string{regTok(in.Dst, info.dst), mem(in.A, in.Imm), v}
	default:
		if info.dst != fileNone {
			ops = append(ops, regTok(in.Dst, info.dst))
		}
		if info.a != fileNone {
			ops = append(ops, regTok(in.A, info.a))
		}
		if info.b != fileNone {
			if in.BImm {
				ops = append(ops, refImmTok(in, info))
			} else {
				ops = append(ops, regTok(in.B, info.b))
			}
		}
		if info.c != fileNone {
			ops = append(ops, regTok(in.C, info.c))
		}
		if info.bar || info.wgbar {
			ops = append(ops, fmt.Sprintf("b%d", in.Bar))
		}
		switch info.imm {
		case immInt:
			ops = append(ops, "#"+strconv.FormatInt(in.Imm, 10))
		case immFloat:
			ops = append(ops, "#"+refFormatFloat(in.FImm))
		case immThreshold:
			ops = append(ops, strconv.FormatInt(in.Imm, 10))
		}
		if info.call {
			ops = append(ops, "@"+in.Callee)
		}
		if info.term && b != nil {
			for _, s := range b.Succs {
				ops = append(ops, s.Name)
			}
		}
	}
	if len(ops) == 0 {
		return info.name
	}
	return info.name + " " + strings.Join(ops, ", ")
}

func refImmTok(in *Instr, info *opInfo) string {
	if info.b == fileFloat {
		return "#" + refFormatFloat(in.FImm)
	}
	return "#" + strconv.FormatInt(in.Imm, 10)
}

func refFormatFloat(v float64) string {
	s := strconv.FormatFloat(v, 'g', -1, 64)
	// Ensure the token round-trips as a float even for integral values.
	if !strings.ContainsAny(s, ".eEnI") {
		s += ".0"
	}
	return s
}
