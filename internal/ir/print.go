package ir

import "strconv"

// Print renders the module in the textual assembly format understood by
// Parse. The format is line-oriented:
//
//	module rsbench memwords=8192
//
//	func @kernel nregs=14 nfregs=6 {
//	entry:
//	  .predict hot threshold=16
//	  tid r0
//	  add r1, r0, #5
//	  ld r2, [r1+8]
//	  join b0
//	  cbr r2, hot, cold
//	hot:
//	  ...
//	}
//
// Predictions are printed as .predict / .predictcall directives at the top
// of their region-start block.
func Print(m *Module) string { return string(AppendModule(nil, m)) }

// PrintFunction renders one function in the assembly format.
func PrintFunction(f *Function) string { return string(AppendFunction(nil, f)) }

// FormatInstr renders a single instruction. The owning block is needed to
// name branch successors; it may be nil for non-terminators.
func FormatInstr(in *Instr, b *Block) string { return string(AppendInstr(nil, in, b)) }

// AppendModule appends Print(m) to dst and returns the extended buffer.
// Into a buffer that already has the capacity it allocates nothing, so a
// caller that only needs the text's bytes or length (the compile cache's
// entry sizing) can reuse one buffer across modules.
func AppendModule(dst []byte, m *Module) []byte {
	dst = append(dst, "module "...)
	dst = append(dst, m.Name...)
	dst = appendAttr(dst, " memwords=", m.MemWords)
	if m.SharedWords > 0 {
		dst = appendAttr(dst, " sharedwords=", m.SharedWords)
	}
	dst = append(dst, '\n')
	for _, f := range m.Funcs {
		dst = append(dst, '\n')
		dst = AppendFunction(dst, f)
	}
	return dst
}

// AppendFunction appends PrintFunction(f) to dst.
func AppendFunction(dst []byte, f *Function) []byte {
	dst = append(dst, "func @"...)
	dst = append(dst, f.Name...)
	dst = appendAttr(dst, " nregs=", f.NRegs)
	dst = appendAttr(dst, " nfregs=", f.NFRegs)
	dst = append(dst, " {\n"...)
	// A prediction prints at the top of its region-start block. The scan
	// for a block's own stops once every prediction is placed, so it runs
	// once for the usual single annotation and never for a function
	// without one.
	pending := len(f.Predictions)
	for _, b := range f.Blocks {
		dst = append(dst, b.Name...)
		dst = append(dst, ":\n"...)
		for i := 0; pending > 0 && i < len(f.Predictions); i++ {
			if p := &f.Predictions[i]; p.At == b {
				dst = appendPrediction(dst, p)
				pending--
			}
		}
		for i := range b.Instrs {
			dst = append(dst, "  "...)
			dst = AppendInstr(dst, &b.Instrs[i], b)
			dst = append(dst, '\n')
		}
	}
	return append(dst, "}\n"...)
}

func appendPrediction(dst []byte, p *Prediction) []byte {
	if p.Callee != "" {
		dst = append(dst, "  .predictcall @"...)
		dst = append(dst, p.Callee...)
	} else {
		dst = append(dst, "  .predict "...)
		dst = append(dst, p.Label.Name...)
	}
	if p.Threshold != 0 {
		dst = appendAttr(dst, " threshold=", p.Threshold)
	}
	return append(dst, '\n')
}

func appendAttr(dst []byte, key string, v int) []byte {
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}

// AppendInstr appends FormatInstr(in, b) to dst.
func AppendInstr(dst []byte, in *Instr, b *Block) []byte {
	info := &opTable[in.Op]
	dst = append(dst, info.name...)
	// Operands are separated by ", "; the first follows the mnemonic
	// after a single space. sep appends whichever is due.
	first := true
	sep := func() {
		if first {
			dst = append(dst, ' ')
			first = false
		} else {
			dst = append(dst, ", "...)
		}
	}
	reg := func(r Reg, file regFile) {
		sep()
		c := byte('r')
		if file == fileFloat {
			c = 'f'
		}
		dst = strconv.AppendInt(append(dst, c), int64(r), 10)
	}
	mem := func() {
		sep()
		dst = strconv.AppendInt(append(dst, "[r"...), int64(in.A), 10)
		if in.Imm != 0 {
			if in.Imm > 0 {
				dst = append(dst, '+')
			}
			dst = strconv.AppendInt(dst, in.Imm, 10)
		}
		dst = append(dst, ']')
	}
	// value is the B operand: a register, or with BImm the immediate of
	// B's file.
	value := func() {
		switch {
		case !in.BImm:
			reg(in.B, info.b)
		case info.b == fileFloat:
			sep()
			dst = appendFloat(append(dst, '#'), in.FImm)
		default:
			sep()
			dst = strconv.AppendInt(append(dst, '#'), in.Imm, 10)
		}
	}

	switch in.Op {
	case OpLoad, OpFLoad, OpSharedLoad, OpFSharedLoad:
		reg(in.Dst, info.dst)
		mem()
	case OpStore, OpFStore, OpSharedStore, OpFSharedStore:
		mem()
		value()
	case OpAtomAdd, OpFAtomAdd:
		reg(in.Dst, info.dst)
		mem()
		value()
	default:
		if info.dst != fileNone {
			reg(in.Dst, info.dst)
		}
		if info.a != fileNone {
			reg(in.A, info.a)
		}
		if info.b != fileNone {
			value()
		}
		if info.c != fileNone {
			reg(in.C, info.c)
		}
		if info.bar || info.wgbar {
			sep()
			dst = strconv.AppendInt(append(dst, 'b'), int64(in.Bar), 10)
		}
		switch info.imm {
		case immInt:
			sep()
			dst = strconv.AppendInt(append(dst, '#'), in.Imm, 10)
		case immFloat:
			sep()
			dst = appendFloat(append(dst, '#'), in.FImm)
		case immThreshold:
			sep()
			dst = strconv.AppendInt(dst, in.Imm, 10)
		}
		if info.call {
			sep()
			dst = append(append(dst, '@'), in.Callee...)
		}
		if info.term && b != nil {
			for _, s := range b.Succs {
				sep()
				dst = append(dst, s.Name...)
			}
		}
	}
	return dst
}

// appendFloat appends v in the shortest form that parses back to the
// same bits. A token of only sign and digits would read as an integer,
// so it gets a ".0"; everything else — a fraction, an exponent, NaN,
// ±Inf — already reads as a float and is left alone.
func appendFloat(dst []byte, v float64) []byte {
	start := len(dst)
	dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	for _, c := range dst[start:] {
		if c != '-' && (c < '0' || c > '9') {
			return dst
		}
	}
	return append(dst, ".0"...)
}
