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

// stackEntry is one divergence-stack record.
type stackEntry struct {
	pc   uint32
	mask uint32
	// rpc is the reconvergence PC — the first instruction of the
	// diverging branch's immediate post-dominator — or noPC when the
	// divergence only resolves at thread exit.
	rpc   uint32
	calls []uint32
}

// stackWarp drives one warp under the reconvergence-stack model. The
// register files, scratch buffers and data-instruction evaluator are the
// ITS warpState's; the warp's group table, per-lane PCs and barrier
// state go unused.
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

	initMask := w.liveMask()
	if initMask == 0 {
		return nil
	}
	ws.stack = []stackEntry{{pc: s.entryPC, mask: initMask, rpc: noPC}}

	for len(ws.stack) > 0 {
		top := &ws.stack[len(ws.stack)-1]
		if top.mask == 0 {
			ws.stack = ws.stack[:len(ws.stack)-1]
			continue
		}
		// Reached the reconvergence point: pop and merge into the
		// entry below (which holds the union mask at the same PC).
		if top.pc == top.rpc {
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
	im := &s.meta[top.pc]
	in := im.in

	active := bits.OnesCount32(top.mask)
	s.issues++
	s.metrics.Issues++
	s.metrics.ActiveLaneSum += int64(active)
	s.metrics.opClassCounts[im.class]++
	cost := im.latency
	if im.ins == 0 {
		s.metrics.blockVisits[im.blkID] += int64(active)
	}
	sink := s.cfg.Events
	var hits0, misses0 int64
	if im.isMem {
		hits0, misses0 = s.metrics.CacheHits, s.metrics.CacheMisses
		cost += s.cache.access(ws.warp.gatherAddrs(in, top.mask), &s.metrics)
	}
	if sink != nil {
		ev := ws.warp.event(EvIssue, im, top.pc, -1, top.mask, 0)
		ev.Cost = cost
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
		top.pc++
	case ir.OpArrived:
		// No barrier state to observe; reads as zero.
		ws.warp.broadcast(in.Dst, top.mask, 0)
		top.pc++
	case ir.OpVoteAny, ir.OpVoteAll, ir.OpBallot:
		v := voteValue(in.Op, top.mask, ws.warp.ballot(top.mask, in.A))
		ws.warp.broadcast(in.Dst, top.mask, v)
		top.pc++
	case ir.OpCall:
		if im.callee < 0 {
			return fmt.Errorf("call to unknown function %q", in.Callee)
		}
		if len(top.calls) >= 64 {
			return fmt.Errorf("call stack overflow")
		}
		if sink != nil {
			sink.Event(ws.warp.event(EvCall, im, top.pc, -1, top.mask, uint32(im.callee)))
		}
		top.calls = append(top.calls, top.pc+1)
		top.pc = im.succ0
	case ir.OpBr:
		top.pc = im.succ0
	case ir.OpCBr:
		taken := ws.warp.ballot(top.mask, in.A)
		fallthru := top.mask &^ taken
		if sink != nil {
			sink.Event(ws.warp.event(EvBranch, im, top.pc, -1, top.mask, taken))
		}
		switch {
		case fallthru == 0:
			top.pc = im.succ0
		case taken == 0:
			top.pc = im.succ1
		default:
			// Divergence: the current entry becomes the reconvergence
			// record parked at the branch's immediate post-dominator;
			// the two sides are pushed above it and run serially.
			rpc := noPC
			if pd := s.ipdom[im.fn][im.blk]; pd >= 0 {
				rpc = s.blockStart(int(im.fn), pd)
			}
			calls := top.calls
			if rpc == noPC {
				// No common reconvergence point: the sides replace the
				// entry entirely.
				ws.stack = ws.stack[:topIdx]
			} else {
				top.pc = rpc
			}
			ws.stack = append(ws.stack,
				stackEntry{pc: im.succ1, mask: fallthru, rpc: rpc, calls: copyCalls(calls)},
				stackEntry{pc: im.succ0, mask: taken, rpc: rpc, calls: copyCalls(calls)},
			)
		}
	case ir.OpRet:
		if sink != nil {
			sink.Event(ws.warp.event(EvRet, im, top.pc, -1, top.mask, 0))
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
			return s.laneError(l, im, err)
		}
		top.pc++
	}
	return nil
}

// exitEntryLanes terminates every lane of the top entry and strips the
// lanes from all remaining stack entries.
func (ws *stackWarp) exitEntryLanes(topIdx int) error {
	mask := ws.stack[topIdx].mask
	for m := mask; m != 0; m &= m - 1 {
		ws.warp.status[bits.TrailingZeros32(m)&laneMask] = laneDone
	}
	ws.stack = ws.stack[:topIdx]
	for i := range ws.stack {
		ws.stack[i].mask &^= mask
	}
	return nil
}

func copyCalls(calls []uint32) []uint32 {
	if len(calls) == 0 {
		return nil
	}
	out := make([]uint32, len(calls))
	copy(out, calls)
	return out
}
