package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"specrecon/internal/ir"
)

// Barrier fault injection. A FaultPlan deterministically perturbs the
// compiled module's barrier placement — exactly the defect classes the
// robustness layer must catch (a lost CancelBarrier leaks participation,
// a lost RejoinBarrier under-synchronizes, swapped registers and skipped
// deconfliction deadlock, §4.3). The faults exist to prove the static
// barrier-safety verifier and the differential checker are not vacuous:
// every plan the injection matrix enumerates must be detected by one of
// them.
//
// Injection happens in two places: the "inject" pass (registered below,
// appended by PipelineFor after deconfliction so faults see the final
// barrier layout before register allocation) applies the drop/swap
// faults; SkipConflict is consumed by the deconflict pass itself, which
// leaves the Nth discovered conflict unresolved.

// FaultPlan selects which barrier perturbations to apply. The zero value
// injects nothing. All counters are 1-based ordinals over the module's
// instruction order (functions, blocks, instructions in sequence); a
// fault whose target does not exist is a compile error, so a test can
// never pass vacuously because its fault missed.
type FaultPlan struct {
	// DropCancel removes the Nth CancelBarrier operation.
	DropCancel int
	// DropWait removes the Nth wait (hard or thresholded).
	DropWait int
	// DropJoin removes the Nth JoinBarrier operation (rejoins included —
	// they share the opcode).
	DropJoin int
	// DropRejoin removes the Nth rejoin: a join immediately preceded by
	// a wait on the same barrier (the Figure 4(d) wait+rejoin pattern).
	DropRejoin int
	// SwapWaits exchanges the barrier registers of the first two waits
	// that name distinct barriers.
	SwapWaits bool
	// SkipConflict leaves the Nth conflict found by the deconflict pass
	// unresolved, re-creating the §4.3 deadlock deconfliction exists to
	// prevent.
	SkipConflict int
}

// Zero reports whether the plan injects nothing.
func (p FaultPlan) Zero() bool { return p == FaultPlan{} }

// injectLayer reports whether any fault is applied by the inject pass
// (as opposed to SkipConflict, which the deconflict pass consumes).
func (p FaultPlan) injectLayer() bool {
	return p.DropCancel > 0 || p.DropWait > 0 || p.DropJoin > 0 || p.DropRejoin > 0 || p.SwapWaits
}

// String renders the plan in ParseFaultPlan's syntax.
func (p FaultPlan) String() string {
	var terms []string
	add := func(name string, n int) {
		if n == 1 {
			terms = append(terms, name)
		} else if n > 0 {
			terms = append(terms, fmt.Sprintf("%s@%d", name, n))
		}
	}
	add("drop-cancel", p.DropCancel)
	add("drop-wait", p.DropWait)
	add("drop-join", p.DropJoin)
	add("drop-rejoin", p.DropRejoin)
	if p.SwapWaits {
		terms = append(terms, "swap-waits")
	}
	add("skip-conflict", p.SkipConflict)
	if len(terms) == 0 {
		return "none"
	}
	return strings.Join(terms, "+")
}

// ParseFaultPlan parses a "+"-separated fault spec such as
// "drop-cancel@2+swap-waits". Each term is a fault name with an optional
// "@N" ordinal (default 1): drop-cancel, drop-wait, drop-join,
// drop-rejoin, swap-waits, skip-conflict.
func ParseFaultPlan(spec string) (FaultPlan, error) {
	var p FaultPlan
	if strings.TrimSpace(spec) == "" || spec == "none" {
		return p, nil
	}
	for _, term := range strings.Split(spec, "+") {
		term = strings.TrimSpace(term)
		name, n := term, 1
		if i := strings.IndexByte(term, '@'); i >= 0 {
			name = term[:i]
			v, err := strconv.Atoi(term[i+1:])
			if err != nil || v < 1 {
				return FaultPlan{}, fmt.Errorf("core: fault %q: ordinal must be a positive integer", term)
			}
			n = v
		}
		switch name {
		case "drop-cancel":
			p.DropCancel = n
		case "drop-wait":
			p.DropWait = n
		case "drop-join":
			p.DropJoin = n
		case "drop-rejoin":
			p.DropRejoin = n
		case "swap-waits":
			p.SwapWaits = true
		case "skip-conflict":
			p.SkipConflict = n
		default:
			return FaultPlan{}, fmt.Errorf("core: unknown fault %q (want drop-cancel, drop-wait, drop-join, drop-rejoin, swap-waits, skip-conflict)", name)
		}
	}
	return p, nil
}

func init() {
	RegisterPass(PassInfo{
		Name:        "inject",
		Description: "deterministically perturb barrier placement per the fault plan (arg: fault spec, default Options.Faults)",
		Build: func(arg string) (Pass, error) {
			var plan *FaultPlan
			if arg != "" {
				p, err := ParseFaultPlan(arg)
				if err != nil {
					return nil, err
				}
				plan = &p
			}
			return &pass{
				name:   "inject",
				spec:   specOf("inject", arg),
				effect: BarriersOnly,
				run: func(c *PassContext) error {
					p := c.Opts.Faults
					if plan != nil {
						p = *plan
					}
					return c.inject(p)
				},
			}, nil
		},
	})
}

// instrRef locates one instruction for the drop faults.
type instrRef struct {
	f   *ir.Function
	b   *ir.Block
	idx int
}

// findNth returns the Nth (1-based) instruction matching pred in module
// order. prev exposes the preceding instruction in the same block (nil
// at a block top) so predicates can match patterns like wait+rejoin.
func findNth(m *ir.Module, n int, pred func(in, prev *ir.Instr) bool) (instrRef, bool) {
	seen := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				var prev *ir.Instr
				if i > 0 {
					prev = &b.Instrs[i-1]
				}
				if !pred(&b.Instrs[i], prev) {
					continue
				}
				seen++
				if seen == n {
					return instrRef{f: f, b: b, idx: i}, true
				}
			}
		}
	}
	return instrRef{}, false
}

// ErrNoFaultTarget is what inject wraps when a fault's target instruction
// does not exist in the module: nothing was planted, which campaigns
// count as a skip and never as the verifier rejecting the build.
var ErrNoFaultTarget = errors.New("module has no")

// inject applies the plan's inject-layer faults to the module. A fault
// whose target instruction does not exist is an error: the caller asked
// for a perturbation that would not actually perturb anything.
func (c *PassContext) inject(p FaultPlan) error {
	type dropFault struct {
		name string
		n    int
		pred func(in, prev *ir.Instr) bool
	}
	isWait := func(op ir.Opcode) bool { return op == ir.OpWait || op == ir.OpWaitN }
	drops := []dropFault{
		{"drop-cancel", p.DropCancel, func(in, _ *ir.Instr) bool { return in.Op == ir.OpCancel }},
		{"drop-wait", p.DropWait, func(in, _ *ir.Instr) bool { return isWait(in.Op) }},
		{"drop-join", p.DropJoin, func(in, _ *ir.Instr) bool { return in.Op == ir.OpJoin }},
		{"drop-rejoin", p.DropRejoin, func(in, prev *ir.Instr) bool {
			return in.Op == ir.OpJoin && prev != nil && isWait(prev.Op) && prev.Bar == in.Bar
		}},
	}
	for _, d := range drops {
		if d.n == 0 {
			continue
		}
		ref, ok := findNth(c.Mod, d.n, d.pred)
		if !ok {
			return fmt.Errorf("fault %s@%d: %w such target", d.name, d.n, ErrNoFaultTarget)
		}
		in := ref.b.Instrs[ref.idx]
		c.Remarkf(ref.f.Name, ref.b.Name, "fault %s@%d: removed %s b%d", d.name, d.n, in.Op, in.Bar)
		ref.b.RemoveAt(ref.idx)
	}
	if p.SwapWaits {
		first, ok := findNth(c.Mod, 1, func(in, _ *ir.Instr) bool { return isWait(in.Op) })
		if !ok {
			return fmt.Errorf("fault swap-waits: %w waits", ErrNoFaultTarget)
		}
		bar0 := first.b.Instrs[first.idx].Bar
		second, ok := findNth(c.Mod, 1, func(in, _ *ir.Instr) bool { return isWait(in.Op) && in.Bar != bar0 })
		if !ok {
			return fmt.Errorf("fault swap-waits: %w second wait on a distinct barrier", ErrNoFaultTarget)
		}
		bar1 := second.b.Instrs[second.idx].Bar
		first.b.Instrs[first.idx].Bar = bar1
		second.b.Instrs[second.idx].Bar = bar0
		c.Remarkf(first.f.Name, first.b.Name, "fault swap-waits: waits on b%d and b%d exchanged registers", bar0, bar1)
	}
	return nil
}
