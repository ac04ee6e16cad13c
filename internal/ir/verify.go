package ir

import (
	"errors"
	"fmt"
)

// VerifyModule checks structural well-formedness of every function in the
// module plus module-level properties (call targets resolve, entry kernels
// exist). It returns all problems found, joined into one error.
func VerifyModule(m *Module) error {
	var errs []error
	if len(m.Funcs) == 0 {
		errs = append(errs, errors.New("module has no functions"))
	}
	seen := make(map[string]bool)
	for _, f := range m.Funcs {
		if seen[f.Name] {
			errs = append(errs, fmt.Errorf("duplicate function %q", f.Name))
		}
		seen[f.Name] = true
		if err := VerifyFunction(f); err != nil {
			errs = append(errs, fmt.Errorf("func %q: %w", f.Name, err))
		}
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op == OpCall && m.FuncByName(in.Callee) == nil {
					errs = append(errs, fmt.Errorf("func %q block %q: call to undefined function %q", f.Name, b.Name, in.Callee))
				}
			}
		}
		for pi, p := range f.Predictions {
			if p.Callee != "" && m.FuncByName(p.Callee) == nil {
				errs = append(errs, fmt.Errorf("func %q prediction %d: callee %q undefined", f.Name, pi, p.Callee))
			}
		}
	}
	return errors.Join(errs...)
}

// VerifyFunction checks structural well-formedness of one function:
// every block ends in exactly one terminator with the right successor
// count, operands respect opcode signatures and register-file bounds,
// block names are unique, indices are consistent, and predictions
// reference blocks of this function.
func VerifyFunction(f *Function) error {
	var errs []error
	if len(f.Blocks) == 0 {
		return errors.New("no blocks")
	}
	names := make(map[string]bool, len(f.Blocks))
	for i, b := range f.Blocks {
		if b.Name == "" {
			errs = append(errs, fmt.Errorf("block %d has empty name", i))
		}
		if names[b.Name] {
			errs = append(errs, fmt.Errorf("duplicate block name %q", b.Name))
		}
		names[b.Name] = true
		if b.Index != i {
			errs = append(errs, fmt.Errorf("block %q has stale index %d (want %d); call Reindex", b.Name, b.Index, i))
		}
	}
	for _, b := range f.Blocks {
		errs = append(errs, verifyBlock(f, b)...)
	}
	for pi, p := range f.Predictions {
		if p.At == nil {
			errs = append(errs, fmt.Errorf("prediction %d: nil At block", pi))
		} else if f.IndexOf(p.At) < 0 {
			errs = append(errs, fmt.Errorf("prediction %d: At block not in function", pi))
		}
		switch {
		case p.Label == nil && p.Callee == "":
			errs = append(errs, fmt.Errorf("prediction %d: neither Label nor Callee set", pi))
		case p.Label != nil && p.Callee != "":
			errs = append(errs, fmt.Errorf("prediction %d: both Label and Callee set", pi))
		case p.Label != nil && f.IndexOf(p.Label) < 0:
			errs = append(errs, fmt.Errorf("prediction %d: Label block not in function", pi))
		}
		if p.Threshold < 0 || p.Threshold > WarpWidth {
			errs = append(errs, fmt.Errorf("prediction %d: threshold %d outside [0,%d]", pi, p.Threshold, WarpWidth))
		}
	}
	return errors.Join(errs...)
}

func verifyBlock(f *Function, b *Block) []error {
	var errs []error
	if len(b.Instrs) == 0 {
		return []error{fmt.Errorf("block %q is empty", b.Name)}
	}
	for i := range b.Instrs {
		in := &b.Instrs[i]
		isLast := i == len(b.Instrs)-1
		if in.Op == OpInvalid || in.Op >= numOpcodes {
			errs = append(errs, fmt.Errorf("block %q instr %d: invalid opcode", b.Name, i))
			continue
		}
		info := &opTable[in.Op]
		if info.term && !isLast {
			errs = append(errs, fmt.Errorf("block %q instr %d: terminator %s before end of block", b.Name, i, in.Op))
		}
		if isLast && !info.term {
			errs = append(errs, fmt.Errorf("block %q: last instruction %s is not a terminator", b.Name, in.Op))
		}
		errs = append(errs, verifyOperands(f, b, i, in)...)
	}
	term := b.Terminator()
	want := opTable[term.Op].nsucc
	if len(b.Succs) != want {
		errs = append(errs, fmt.Errorf("block %q: terminator %s wants %d successors, has %d", b.Name, term.Op, want, len(b.Succs)))
	}
	for si, s := range b.Succs {
		if s == nil {
			errs = append(errs, fmt.Errorf("block %q: nil successor %d", b.Name, si))
		} else if f.IndexOf(s) < 0 {
			errs = append(errs, fmt.Errorf("block %q: successor %d (%q) not in function", b.Name, si, s.Name))
		}
	}
	return errs
}

func verifyOperands(f *Function, b *Block, i int, in *Instr) []error {
	var errs []error
	info := &opTable[in.Op]
	at := func(msg string, args ...any) {
		errs = append(errs, fmt.Errorf("block %q instr %d (%s): %s", b.Name, i, in.Op, fmt.Sprintf(msg, args...)))
	}
	checkReg := func(role string, r Reg, file regFile) {
		switch file {
		case fileNone:
			// Unused operands are not checked; builders set NoReg but
			// the zero value is also tolerated for hand-built IR.
		case fileInt:
			if r < 0 || int(r) >= f.NRegs {
				at("%s register r%d out of range [0,%d)", role, r, f.NRegs)
			}
		case fileFloat:
			if r < 0 || int(r) >= f.NFRegs {
				at("%s register f%d out of range [0,%d)", role, r, f.NFRegs)
			}
		}
	}
	checkReg("dst", in.Dst, info.dst)
	checkReg("a", in.A, info.a)
	if info.b != fileNone && !(in.BImm && info.bMayImm) {
		checkReg("b", in.B, info.b)
	}
	if in.BImm && !info.bMayImm {
		at("BImm set but opcode does not take an immediate B")
	}
	checkReg("c", in.C, info.c)
	if info.bar {
		if in.Bar < 0 {
			at("negative barrier register %d", in.Bar)
		}
	}
	if info.wgbar && (in.Bar < 0 || in.Bar >= NumBarrierRegs) {
		at("workgroup barrier %d outside [0,%d)", in.Bar, NumBarrierRegs)
	}
	if in.Op == OpWaitN && (in.Imm < 0 || in.Imm > WarpWidth) {
		at("waitn threshold %d outside [0,%d]", in.Imm, WarpWidth)
	}
	if info.call && in.Callee == "" {
		at("call with empty callee")
	}
	return errs
}
