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
// In this divergence model the warp has a single architectural PC plus a
// divergence stack. A divergent branch pushes a reconvergence entry at
// the branch's immediate post-dominator and one entry per side; the top
// entry executes until its PC reaches its reconvergence point, then pops
// and the masks merge. Convergence-barrier instructions do not exist on
// this model and are executed as no-ops (they still occupy issue slots,
// as the real SSY-token machinery did), which means speculative
// reconvergence cannot be expressed — exactly the paper's motivation for
// building on Volta's independent thread scheduling. The model exists as
// a baseline ablation: it produces the same results as the ITS model
// (barriers never change semantics) with PDOM-shaped efficiency.
//
// The model is only a different answer to "which lanes issue next, and
// where do they go": a stack warp is an ordinary warpState stepped by the
// same tryStep, so it runs in every launch shape, under every warp
// scheduler, with the sampler, the starvation monitor, sharded SMs and
// recycled launch arenas. Sharing waves, its ctabar is the real CTA-wide
// barrier: the top entry's lanes arrive and the warp stalls until the
// whole CTA has. Below the top nothing can run, so a ctabar inside divergent code
// can never collect the lanes parked under it — it deadlocks, as on
// pre-Volta hardware, and is reported as a DeadlockError.
//
// Calls are uniform within a stack entry; a callee may diverge
// internally and reconverges at its own post-dominators. Lanes that exit
// are stripped from every stack entry.

// Model selects the divergence model, the one thing tryStep and issue
// select on.
type Model int

const (
	// ModelITS is Volta-style independent thread scheduling with
	// convergence barriers (the default).
	ModelITS Model = iota
	// ModelStack is the pre-Volta reconvergence stack.
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

// buildIpdom computes every block's immediate post-dominator as a block
// index (-1 when there is none), indexed [fn][blk]. The stack model
// reads it at divergent branches; it is built once per launch beside the
// decode tables, shared by the SM forks, and never writes to the
// (possibly shared) module.
func buildIpdom(m *ir.Module) [][]int {
	ipdom := make([][]int, len(m.Funcs))
	for fi, f := range m.Funcs {
		info := cfg.New(f, nil)
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

// settle pops the stack down to an entry that can issue — past the
// entries whose lanes all exited and those that reached their
// reconvergence point, which merge into the entry below (it holds the
// union mask at the same PC) — and reports whether that top entry is
// runnable, which it is unless its lanes are parked at a ctabar, and
// whether the warp has any live lane at all.
func (ws *warpState) settle() (runnable, live bool) {
	for n := len(ws.stack) - 1; n >= 0; n-- {
		if top := &ws.stack[n]; top.mask != 0 && top.pc != top.rpc {
			return ws.status[bits.TrailingZeros32(top.mask)&laneMask] != laneCTAWaiting, true
		}
		ws.stack = ws.stack[:n]
	}
	return false, false
}

// issueTop executes instruction im, already accounted by issue, for the
// stack's top entry.
func (ws *warpState) issueTop(im *instrMeta, sink EventSink) error {
	s := ws.sim
	topIdx := len(ws.stack) - 1
	top := &ws.stack[topIdx]
	in := im.in

	switch in.Op {
	case ir.OpJoin, ir.OpWait, ir.OpWaitN, ir.OpCancel, ir.OpWarpSync:
		// Convergence barriers do not exist pre-Volta: no-ops.
		top.pc++
	case ir.OpCTABar:
		ws.arriveCTABar(im, top.pc, top.mask, sink)
		top.pc++
	case ir.OpArrived:
		// No barrier state to observe; reads as zero.
		ws.broadcast(in.Dst, top.mask, 0)
		top.pc++
	case ir.OpVoteAny, ir.OpVoteAll, ir.OpBallot:
		v := voteValue(in.Op, top.mask, ws.ballot(top.mask, in.A))
		ws.broadcast(in.Dst, top.mask, v)
		top.pc++
	case ir.OpCall:
		if im.callee < 0 {
			return fmt.Errorf("call to unknown function %q", in.Callee)
		}
		if len(top.calls) >= 64 {
			return fmt.Errorf("call stack overflow")
		}
		if sink != nil {
			sink.Event(ws.event(EvCall, im, top.pc, -1, top.mask, uint32(im.callee)))
		}
		top.calls = append(top.calls, top.pc+1)
		top.pc = im.succ0
	case ir.OpBr:
		top.pc = im.succ0
	case ir.OpCBr:
		taken := ws.ballot(top.mask, in.A)
		fallthru := top.mask &^ taken
		if sink != nil {
			sink.Event(ws.event(EvBranch, im, top.pc, -1, top.mask, taken))
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
			sink.Event(ws.event(EvRet, im, top.pc, -1, top.mask, 0))
		}
		if len(top.calls) == 0 {
			return ws.exitTop(topIdx)
		}
		top.pc = top.calls[len(top.calls)-1]
		top.calls = top.calls[:len(top.calls)-1]
	case ir.OpExit:
		return ws.exitTop(topIdx)
	default:
		if l, err := ws.execData(in, top.mask); err != nil {
			return s.laneError(l, im, err)
		}
		top.pc++
	}
	return nil
}

// exitTop terminates every lane of the top entry and strips the lanes
// from all remaining stack entries.
func (ws *warpState) exitTop(topIdx int) error {
	mask := ws.stack[topIdx].mask
	ws.stack = ws.stack[:topIdx]
	for i := range ws.stack {
		ws.stack[i].mask &^= mask
	}
	for m := mask; m != 0; m &= m - 1 {
		if err := ws.exitLane(bits.TrailingZeros32(m)); err != nil {
			return err
		}
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
