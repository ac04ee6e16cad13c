package simt

import (
	"fmt"
	"math/bits"

	"specrecon/internal/cfg"
	"specrecon/internal/ir"
)

// Pre-Volta stack-based reconvergence (paper section 2: "pre-Volta GPUs
// use a stack based mechanism to handle nested control divergence").
//
// In this execution model the warp has a single architectural PC plus a
// divergence stack. A divergent branch pushes a reconvergence entry at
// the branch's immediate post-dominator and one entry per side; the top
// entry executes until its PC reaches its reconvergence point, then pops
// and the masks merge. Convergence-barrier instructions do not exist on
// this model and are executed as no-ops (they still occupy issue slots,
// as the real SSY-token machinery did), which means speculative
// reconvergence cannot be expressed — exactly the paper's motivation for
// building on Volta's independent thread scheduling. The mode exists as
// a baseline ablation: it produces the same results as the ITS model
// (barriers never change semantics) with PDOM-shaped efficiency.
//
// Calls are uniform within a stack entry; a callee may diverge
// internally and reconverges at its own post-dominators. Lanes that exit
// are stripped from every stack entry.

// Model selects the execution engine.
type Model int

const (
	// ModelITS is Volta-style independent thread scheduling with
	// convergence barriers (the default engine in this package).
	ModelITS Model = iota
	// ModelStack is the pre-Volta reconvergence-stack engine.
	ModelStack
)

func (m Model) String() string {
	switch m {
	case ModelITS:
		return "its"
	case ModelStack:
		return "stack"
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// noRPC marks an entry with no reconvergence point (divergence that only
// resolves at thread exit).
var noRPC = pcT{fn: -1, blk: -1, ins: -1}

// stackEntry is one divergence-stack record.
type stackEntry struct {
	pc    pcT
	mask  uint32
	rpc   pcT // reconvergence PC (block entry), or noRPC
	calls []pcT
}

// stackWarp drives one warp under the reconvergence-stack model. The
// lanes, scratch buffers and data-instruction evaluator are the ITS
// warpState's; the warp's group table and barrier state go unused.
type stackWarp struct {
	sim   *sim
	warp  *warpState
	stack []stackEntry
}

// buildIpdom computes every block's immediate post-dominator as a block
// index (-1 when there is none), indexed [fn][blk]. The stack engine
// reads it at divergent branches; it is built once per launch beside the
// decode tables and never writes to the (possibly shared) module.
func buildIpdom(m *ir.Module) [][]int {
	ipdom := make([][]int, len(m.Funcs))
	for fi, f := range m.Funcs {
		info := cfg.New(f)
		rows := make([]int, len(f.Blocks))
		for bi, b := range f.Blocks {
			if pd := info.Ipdom(b); pd != nil {
				rows[bi] = pd.Index
			} else {
				rows[bi] = -1
			}
		}
		ipdom[fi] = rows
	}
	return ipdom
}

// runStackWarp executes warp w to completion under ModelStack.
func (s *sim) runStackWarp(w *warpState) error {
	ws := &stackWarp{sim: s, warp: w}
	index := w.index

	var initMask uint32
	var entryPC pcT
	for l, ln := range w.lanes {
		if ln.status != laneDone {
			initMask |= 1 << l
			entryPC = ln.pc
		}
	}
	if initMask == 0 {
		return nil
	}
	ws.stack = []stackEntry{{pc: entryPC, mask: initMask, rpc: noRPC}}

	for len(ws.stack) > 0 {
		top := &ws.stack[len(ws.stack)-1]
		if top.mask == 0 {
			ws.stack = ws.stack[:len(ws.stack)-1]
			continue
		}
		// Reached the reconvergence point: pop and merge into the
		// entry below (which holds the union mask at the same PC).
		if top.rpc != noRPC && top.pc.fn == top.rpc.fn && top.pc.blk == top.rpc.blk && top.pc.ins == 0 {
			ws.stack = ws.stack[:len(ws.stack)-1]
			continue
		}
		if s.issues >= s.cfg.MaxIssues || (s.cfg.MaxCycles > 0 && s.metrics.Cycles >= s.cfg.MaxCycles) {
			return s.budgetError(index, -1)
		}
		if s.watchdogExpired() {
			return s.watchdogError(index, -1)
		}
		if err := ws.step(); err != nil {
			return err
		}
	}
	return nil
}

// step executes one instruction for the top-of-stack entry.
func (ws *stackWarp) step() error {
	s := ws.sim
	topIdx := len(ws.stack) - 1
	top := &ws.stack[topIdx]
	f := s.mod.Funcs[top.pc.fn]
	blk := f.Blocks[top.pc.blk]
	in := &blk.Instrs[top.pc.ins]
	im := &s.meta[top.pc.fn][top.pc.blk][top.pc.ins]

	lanes := &ws.warp.lanes
	index := int32(ws.warp.index)
	active := bits.OnesCount32(top.mask)
	s.issues++
	s.metrics.Issues++
	s.metrics.ActiveLaneSum += int64(active)
	s.metrics.opClassCounts[im.class]++
	cost := im.latency
	if top.pc.ins == 0 {
		s.metrics.addBlockVisit(top.pc.fn, top.pc.blk, int64(active))
	}
	sink := s.cfg.Events
	var hits0, misses0 int64
	if im.isMem {
		addrs := ws.warp.addrBuf[:0]
		for m := top.mask; m != 0; m &= m - 1 {
			addrs = append(addrs, lanes[bits.TrailingZeros32(m)].regs[in.A]+in.Imm)
		}
		hits0, misses0 = s.metrics.CacheHits, s.metrics.CacheMisses
		cost += s.cache.access(addrs, &s.metrics)
	}
	if sink != nil {
		ev := Event{
			Kind: EvIssue, Bar: -1, Warp: index, PC: im.pcid,
			Fn: int32(top.pc.fn), Blk: int32(top.pc.blk), Ins: int32(top.pc.ins),
			FnName: f.Name, BlockName: blk.Name,
			Issue: s.metrics.Issues, Cycle: s.metrics.Cycles, Cost: cost,
			Mask: top.mask,
		}
		sink.Event(ev)
		if im.isMem {
			ev.Kind = EvCacheAccess
			ev.Cost = 0
			ev.Aux = uint32(s.metrics.CacheHits-hits0)<<16 | uint32(s.metrics.CacheMisses-misses0)
			sink.Event(ev)
		}
	}
	s.metrics.Cycles += cost

	switch in.Op {
	case ir.OpJoin, ir.OpWait, ir.OpWaitN, ir.OpCancel, ir.OpWarpSync, ir.OpCTABar:
		// Convergence barriers do not exist pre-Volta: no-ops. The
		// ctabar workgroup barrier is likewise a no-op here — the stack
		// engine is a flat-launch-only ablation with no CTA scheduling
		// to synchronize (grid launches reject ModelStack).
		top.pc.ins++
	case ir.OpArrived:
		// No barrier state to observe; reads as zero.
		for m := top.mask; m != 0; m &= m - 1 {
			lanes[bits.TrailingZeros32(m)].regs[in.Dst] = 0
		}
		top.pc.ins++
	case ir.OpVoteAny, ir.OpVoteAll, ir.OpBallot:
		v := voteValue(in.Op, top.mask, ws.warp.ballot(top.mask, in.A))
		for m := top.mask; m != 0; m &= m - 1 {
			lanes[bits.TrailingZeros32(m)].regs[in.Dst] = v
		}
		top.pc.ins++
	case ir.OpCall:
		callee := int(im.callee)
		if callee < 0 {
			return fmt.Errorf("call to unknown function %q", in.Callee)
		}
		if len(top.calls) >= 64 {
			return fmt.Errorf("call stack overflow")
		}
		if sink != nil {
			sink.Event(Event{
				Kind: EvCall, Bar: -1, Warp: index,
				PC: im.pcid, Fn: int32(top.pc.fn), Blk: int32(top.pc.blk), Ins: int32(top.pc.ins),
				FnName: f.Name, BlockName: blk.Name,
				Issue: s.metrics.Issues, Cycle: s.metrics.Cycles,
				Mask: top.mask, Aux: uint32(callee),
			})
		}
		ret := top.pc
		ret.ins++
		top.calls = append(top.calls, ret)
		top.pc = pcT{fn: callee}
	case ir.OpBr:
		top.pc = pcT{fn: top.pc.fn, blk: blk.Succs[0].Index}
	case ir.OpCBr:
		taken := ws.warp.ballot(top.mask, in.A)
		fallthru := top.mask &^ taken
		if sink != nil {
			sink.Event(Event{
				Kind: EvBranch, Bar: -1, Warp: index,
				PC: im.pcid, Fn: int32(top.pc.fn), Blk: int32(top.pc.blk), Ins: int32(top.pc.ins),
				FnName: f.Name, BlockName: blk.Name,
				Issue: s.metrics.Issues, Cycle: s.metrics.Cycles,
				Mask: top.mask, Aux: taken,
			})
		}
		switch {
		case fallthru == 0:
			top.pc = pcT{fn: top.pc.fn, blk: blk.Succs[0].Index}
		case taken == 0:
			top.pc = pcT{fn: top.pc.fn, blk: blk.Succs[1].Index}
		default:
			// Divergence: the current entry becomes the reconvergence
			// record parked at the branch's immediate post-dominator;
			// the two sides are pushed above it and run serially.
			rpc := noRPC
			if pd := s.ipdom[top.pc.fn][top.pc.blk]; pd >= 0 {
				rpc = pcT{fn: top.pc.fn, blk: pd}
			}
			thenPC := pcT{fn: top.pc.fn, blk: blk.Succs[0].Index}
			elsePC := pcT{fn: top.pc.fn, blk: blk.Succs[1].Index}
			calls := top.calls
			if rpc == noRPC {
				// No common reconvergence point: the sides replace the
				// entry entirely.
				ws.stack = ws.stack[:topIdx]
			} else {
				top.pc = rpc
			}
			ws.stack = append(ws.stack,
				stackEntry{pc: elsePC, mask: fallthru, rpc: rpc, calls: copyCalls(calls)},
				stackEntry{pc: thenPC, mask: taken, rpc: rpc, calls: copyCalls(calls)},
			)
		}
	case ir.OpRet:
		if sink != nil {
			sink.Event(Event{
				Kind: EvRet, Bar: -1, Warp: index,
				PC: im.pcid, Fn: int32(top.pc.fn), Blk: int32(top.pc.blk), Ins: int32(top.pc.ins),
				FnName: f.Name, BlockName: blk.Name,
				Issue: s.metrics.Issues, Cycle: s.metrics.Cycles,
				Mask: top.mask,
			})
		}
		if len(top.calls) == 0 {
			return ws.exitEntryLanes(topIdx)
		}
		top.pc = top.calls[len(top.calls)-1]
		top.calls = top.calls[:len(top.calls)-1]
	case ir.OpExit:
		return ws.exitEntryLanes(topIdx)
	default:
		if l, err := ws.warp.execData(in, top.mask); err != nil {
			return fmt.Errorf("lane %d at %s.%s#%d: %w", l, f.Name, blk.Name, top.pc.ins, err)
		}
		top.pc.ins++
	}
	return nil
}

// exitEntryLanes terminates every lane of the top entry and strips the
// lanes from all remaining stack entries.
func (ws *stackWarp) exitEntryLanes(topIdx int) error {
	mask := ws.stack[topIdx].mask
	for m := mask; m != 0; m &= m - 1 {
		ws.warp.lanes[bits.TrailingZeros32(m)].status = laneDone
	}
	ws.stack = ws.stack[:topIdx]
	for i := range ws.stack {
		ws.stack[i].mask &^= mask
	}
	return nil
}

func copyCalls(calls []pcT) []pcT {
	if len(calls) == 0 {
		return nil
	}
	out := make([]pcT, len(calls))
	copy(out, calls)
	return out
}
