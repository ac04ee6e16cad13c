package core

import (
	"fmt"
	"specrecon/internal/analyze"
	"strconv"
	"strings"

	"specrecon/internal/ir"
)

func init() {
	RegisterPass(PassInfo{
		Name:        "unroll",
		Description: "partially unroll a loop (arg: unroll=fn:header:factor)",
		Build: func(arg string) (Pass, error) {
			parts := strings.Split(arg, ":")
			if len(parts) != 3 {
				return nil, fmt.Errorf("pass \"unroll\": want fn:header:factor, got %q", arg)
			}
			factor, err := strconv.Atoi(parts[2])
			if err != nil {
				return nil, fmt.Errorf("pass \"unroll\": bad factor %q: %v", parts[2], err)
			}
			fn, header := parts[0], parts[1]
			return &pass{
				name: "unroll",
				spec: "unroll=" + arg,
				run: func(c *PassContext) error {
					copies, err := UnrollLoop(c.Mod, fn, header, factor)
					if err != nil {
						return err
					}
					c.Remarkf(fn, header, "unrolled by %d: body copies %s", factor, strings.Join(copies, ", "))
					return nil
				},
			}, nil
		},
	})
}

// Partial loop unrolling, built to study the paper's section-6
// interaction: "if the inner loop of a loop nest is partially unrolled
// by a factor of N, Loop Merge may be still applied. Reconvergence is
// needed only once per N iterations of the inner loop body, which may
// reduce the overhead of synchronization for reconvergence."
//
// UnrollLoop duplicates a simple rotated loop body: the loop must have a
// single header whose conditional branch exits it, and a single body
// path back to the header. After unrolling by factor N, the body appears
// N times, each copy still guarded by its own header check (so data-
// dependent trip counts remain exact), but a prediction label placed on
// the first body copy synchronizes once per N iterations.

// UnrollLoop unrolls the loop headed by headerName in fn by the given
// factor, returning the names of the body copies (the first one is the
// original). Factor must be at least 2.
func UnrollLoop(m *ir.Module, fnName, headerName string, factor int) ([]string, error) {
	if factor < 2 {
		return nil, fmt.Errorf("core: unroll: factor %d < 2", factor)
	}
	f := m.FuncByName(fnName)
	if f == nil {
		return nil, fmt.Errorf("core: unroll: function %q missing", fnName)
	}
	info := analyze.NewFacts(nil).CFG(f)
	header := f.BlockByName(headerName)
	if header == nil {
		return nil, fmt.Errorf("core: unroll: block %q missing", headerName)
	}
	loop := info.LoopOf(header)
	if loop == nil || loop.Header != header {
		return nil, fmt.Errorf("core: unroll: %q does not head a loop", headerName)
	}
	term := header.Terminator()
	if term.Op != ir.OpCBr {
		return nil, fmt.Errorf("core: unroll: loop header %q must end in a conditional branch", headerName)
	}
	var body, exit *ir.Block
	switch {
	case loop.Contains(header.Succs[0]) && !loop.Contains(header.Succs[1]):
		body, exit = header.Succs[0], header.Succs[1]
	case loop.Contains(header.Succs[1]) && !loop.Contains(header.Succs[0]):
		body, exit = header.Succs[1], header.Succs[0]
	default:
		return nil, fmt.Errorf("core: unroll: header %q is not the loop's sole exit", headerName)
	}
	if len(loop.Blocks) != 2 {
		return nil, fmt.Errorf("core: unroll: only single-block loop bodies are supported (loop has %d blocks)", len(loop.Blocks))
	}
	if bt := body.Terminator(); bt.Op != ir.OpBr || body.Succs[0] != header {
		return nil, fmt.Errorf("core: unroll: body %q must branch straight back to the header", body.Name)
	}

	// Build the chain: body -> check1 -> body1 -> check2 -> body2 ...
	// Each check replicates the header's trip test; the final body copy
	// branches back to the real header.
	names := []string{body.Name}
	prevBody := body
	for k := 1; k < factor; k++ {
		check := f.NewBlock(fmt.Sprintf("%s.chk%d", header.Name, k))
		check.Instrs = append([]ir.Instr(nil), header.Instrs...)
		copyBody := f.NewBlock(fmt.Sprintf("%s.u%d", body.Name, k))
		copyBody.Instrs = append([]ir.Instr(nil), body.Instrs...)

		// The check branches to this copy or the exit, preserving the
		// header's taken/fallthrough orientation.
		if header.Succs[0] == body {
			check.Succs = []*ir.Block{copyBody, exit}
		} else {
			check.Succs = []*ir.Block{exit, copyBody}
		}
		// The previous body copy now falls into the check.
		prevBody.Succs = []*ir.Block{check}
		// This copy branches back to the real header (patched again on
		// the next round if another copy follows).
		copyBody.Succs = []*ir.Block{header}
		prevBody = copyBody
		names = append(names, copyBody.Name)
	}
	f.Reindex()
	return names, ir.VerifyFunction(f)
}
