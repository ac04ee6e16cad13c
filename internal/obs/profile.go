package obs

import (
	"math/bits"

	"specrecon/internal/ir"
	"specrecon/internal/simt"
)

// pcCounters is the per-static-instruction accumulator row. All fields
// are plain integers so the event handler is a few array writes.
type pcCounters struct {
	issues      int64 // warp instructions issued at this PC
	activeLanes int64 // sum of active lanes over those issues
	cycles      int64 // modeled cycles charged to issues at this PC
	memStall    int64 // cycles beyond base latency (memory transactions)
	barStall    int64 // lane-cycles spent blocked at this wait instruction
	waits       int64 // lane-block events at this PC (wait/waitn only)

	// Conditional-branch counters (OpCBr only).
	takenLanes    int64
	notTakenLanes int64
	divergent     int64 // issues whose group split across both edges
}

// barCounters aggregates one barrier register across the launch.
type barCounters struct {
	waits    int64 // lane-block events
	releases int64 // lane-release events
	blocked  int64 // total lane-cycles spent blocked on this barrier
}

// laneWaitState remembers, per warp lane, when and where it blocked so
// the release event can attribute the blocked time.
type laneWaitState struct {
	since  [ir.WarpWidth]int64
	waitPC [ir.WarpWidth]int32
}

// Profile is an nvprof-style per-PC profile of one (or more) launches.
// It implements simt.EventSink; attach it via simt.Config.Events. The
// zero value is not usable — construct with NewProfile over the exact
// module passed to simt.Run, so the dense PC numbering matches.
type Profile struct {
	mod  *ir.Module
	pcs  []simt.PCRef
	base []int64 // base (no-stall) latency per PC

	counters []pcCounters
	barriers []barCounters
	warps    []*laneWaitState

	issues      int64
	activeLanes int64
	cycles      int64
}

// NewProfile builds an empty profile sized for module m. m must be the
// compiled module that will run on the simulator (the PC numbering is
// positional).
func NewProfile(m *ir.Module) *Profile {
	pcs := simt.BuildPCTable(m)
	p := &Profile{
		mod:      m,
		pcs:      pcs,
		base:     make([]int64, len(pcs)),
		counters: make([]pcCounters, len(pcs)),
	}
	for i, ref := range pcs {
		op := m.Funcs[ref.Fn].Blocks[ref.Blk].Instrs[ref.Ins].Op
		p.base[i] = int64(op.Latency())
	}
	nbar := 1
	for _, f := range m.Funcs {
		if n := f.MaxBarrier() + 1; n > nbar {
			nbar = n
		}
		// ctabar workgroup barriers live outside MaxBarrier (they are not
		// convergence-barrier ops) but share the register numbering, so
		// size the table to cover them too.
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if in := &b.Instrs[i]; in.Op.IsCTABarrier() && in.Bar+1 > nbar {
					nbar = in.Bar + 1
				}
			}
		}
	}
	p.barriers = make([]barCounters, nbar)
	return p
}

// warp returns (growing on demand) the wait state of warp w. Growth only
// happens the first time a warp blocks, never in the steady state.
func (p *Profile) warp(w int32) *laneWaitState {
	for int(w) >= len(p.warps) {
		p.warps = append(p.warps, nil)
	}
	if p.warps[w] == nil {
		p.warps[w] = &laneWaitState{}
	}
	return p.warps[w]
}

// Event implements simt.EventSink. It performs no allocation on the
// issue/branch path.
func (p *Profile) Event(ev *simt.Event) {
	switch ev.Kind {
	case simt.EvIssue:
		if ev.PC < 0 || int(ev.PC) >= len(p.counters) {
			return
		}
		c := &p.counters[ev.PC]
		active := int64(bits.OnesCount32(ev.Mask))
		c.issues++
		c.activeLanes += active
		c.cycles += ev.Cost
		if stall := ev.Cost - p.base[ev.PC]; stall > 0 {
			c.memStall += stall
		}
		p.issues++
		p.activeLanes += active
		p.cycles += ev.Cost
	case simt.EvBranch:
		if ev.PC < 0 || int(ev.PC) >= len(p.counters) {
			return
		}
		c := &p.counters[ev.PC]
		taken := int64(bits.OnesCount32(ev.Aux))
		c.takenLanes += taken
		c.notTakenLanes += int64(bits.OnesCount32(ev.Mask)) - taken
		if ev.Diverged() {
			c.divergent++
		}
	case simt.EvBarrierWait, simt.EvCTABarWait:
		// ctabar workgroup barriers share the register numbering with
		// convergence barriers, so their wait/stall time lands in the
		// same per-register rows.
		if int(ev.Bar) >= len(p.barriers) {
			return
		}
		w := p.warp(ev.Warp)
		n := int64(0)
		for m := ev.Mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			w.since[l] = ev.Cycle
			w.waitPC[l] = ev.PC
			n++
		}
		p.barriers[ev.Bar].waits += n
		if ev.PC >= 0 && int(ev.PC) < len(p.counters) {
			p.counters[ev.PC].waits += n
		}
	case simt.EvBarrierRelease, simt.EvCTABarRelease:
		if int(ev.Bar) >= len(p.barriers) {
			return
		}
		w := p.warp(ev.Warp)
		b := &p.barriers[ev.Bar]
		for m := ev.Mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			stall := ev.Cycle - w.since[l]
			b.releases++
			b.blocked += stall
			if pc := w.waitPC[l]; pc >= 0 && int(pc) < len(p.counters) {
				p.counters[pc].barStall += stall
			}
		}
	}
}

// instr returns the static instruction behind dense PC index i.
func (p *Profile) instr(i int) *ir.Instr {
	ref := p.pcs[i]
	return &p.mod.Funcs[ref.Fn].Blocks[ref.Blk].Instrs[ref.Ins]
}

// isBranch reports whether PC i is a conditional branch.
func (p *Profile) isBranch(i int) bool { return p.instr(i).Op == ir.OpCBr }

// SIMTEfficiency returns mean active lanes per profiled issue divided by
// the warp width, in [0,1].
func (p *Profile) SIMTEfficiency() float64 {
	if p.issues == 0 {
		return 0
	}
	return float64(p.activeLanes) / float64(p.issues) / float64(ir.WarpWidth)
}

// BranchEfficiency returns the launch-wide nvprof-style branch
// efficiency: the fraction of conditional-branch issues that did not
// diverge, in [0,1]. Launches with no branches report 1.
func (p *Profile) BranchEfficiency() float64 {
	var issues, divergent int64
	for i := range p.counters {
		if !p.isBranch(i) {
			continue
		}
		issues += p.counters[i].issues
		divergent += p.counters[i].divergent
	}
	if issues == 0 {
		return 1
	}
	return float64(issues-divergent) / float64(issues)
}

// MemStallCycles returns total cycles charged beyond base instruction
// latency (memory transaction time).
func (p *Profile) MemStallCycles() int64 {
	var n int64
	for i := range p.counters {
		n += p.counters[i].memStall
	}
	return n
}

// BarrierStallCycles returns total lane-cycles spent blocked at
// convergence barriers and ctabar workgroup barriers.
func (p *Profile) BarrierStallCycles() int64 {
	var n int64
	for i := range p.barriers {
		n += p.barriers[i].blocked
	}
	return n
}

// Issues returns the number of profiled warp-instruction issues.
func (p *Profile) Issues() int64 { return p.issues }

// Cycles returns the total modeled cycles attributed across PCs.
func (p *Profile) Cycles() int64 { return p.cycles }
