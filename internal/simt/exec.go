package simt

import (
	"fmt"
	"math"
	"math/bits"

	"specrecon/internal/ir"
)

// issue executes one warp instruction for every lane of g, which is
// entry gi of the warp's group table under ITS and the top of its
// divergence stack under the stack model. The accounting is common: issue, lane,
// op-class and block-visit counters, the coalescer and cache, the
// sampler's mem-stall accumulator and the EvIssue/EvCacheAccess events.
// Where the lanes go next is the model's: the stack model continues in
// issueTop; ITS advances the group's PC below and keeps the table
// current — instructions that move the whole group uniformly (data ops,
// join, cancel, votes, branches, calls) edit the entry in place and touch
// no per-lane PC; everything else — and every error return — invalidates
// the table first, so the per-lane edits that follow act on pcs and the
// next groups() call rescans.
func (ws *warpState) issue(gi int, g group) error {
	s := ws.sim
	im := &s.meta[g.pc]
	in := im.in

	active := bits.OnesCount32(g.mask)
	s.issues++
	s.metrics.Issues++
	s.metrics.ActiveLaneSum += int64(active)
	s.metrics.opClassCounts[im.class]++
	cost := im.latency

	if im.ins == 0 {
		s.metrics.blockVisits[im.blkID] += int64(active)
	}
	sink := s.cfg.Events

	// Memory instructions compute per-warp transaction costs from the
	// coalescing of the active lanes' addresses.
	var hits0, misses0 int64
	if im.isMem {
		hits0, misses0 = s.metrics.CacheHits, s.metrics.CacheMisses
		cost += s.cache.access(ws.gatherAddrs(in, g.mask), &s.metrics)
		// Everything beyond the base latency is memory transaction time;
		// the occupancy sampler windows this accumulator into per-sample
		// mem-stall attribution (sample.go).
		s.memStallAcc += cost - im.latency
	}

	if sink != nil {
		ev := ws.event(EvIssue, im, g.pc, -1, g.mask, 0)
		ev.Cost = cost
		sink.Event(ev)
		if im.isMem {
			ev.Kind = EvCacheAccess
			ev.Cost = 0
			ev.Aux = uint32(s.metrics.CacheHits-hits0)<<16 | uint32(s.metrics.CacheMisses-misses0)
			sink.Event(ev)
		}
	}

	if s.cfg.Model == ModelStack {
		s.metrics.Cycles += cost
		return ws.issueTop(im, sink)
	}
	switch in.Op {
	case ir.OpJoin:
		ws.masks[in.Bar] |= g.mask
		ws.advance(gi)
	case ir.OpCancel:
		ws.masks[in.Bar] &^= g.mask
		ws.advance(gi)
		ws.releaseCheck(in.Bar)
	case ir.OpWait, ir.OpWaitN:
		ws.invalidate()
		var blocked uint32
		for m := g.mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			if ws.masks[in.Bar]&(1<<l) == 0 {
				// Not a participant: fall through.
				ws.pcs[l]++
				continue
			}
			ws.status[l] = laneWaiting
			ws.waitBar[l] = int32(in.Bar)
			ws.waiting[in.Bar] |= 1 << l
			blocked |= 1 << l
			s.metrics.BarrierWaits++
		}
		if sink != nil && blocked != 0 {
			sink.Event(ws.event(EvBarrierWait, im, g.pc, in.Bar, blocked, 0))
		}
		if in.Op == ir.OpWaitN {
			ws.releaseCheckSoft(in.Bar, int(in.Imm))
		} else {
			ws.releaseCheck(in.Bar)
		}
	case ir.OpCTABar:
		ws.invalidate()
		ws.arriveCTABar(im, g.pc, g.mask, sink)
	case ir.OpWarpSync:
		ws.invalidate()
		for m := g.mask; m != 0; m &= m - 1 {
			ws.status[bits.TrailingZeros32(m)] = laneSyncing
		}
		ws.syncCheck()
	case ir.OpVoteAny, ir.OpVoteAll, ir.OpBallot:
		v := voteValue(in.Op, g.mask, ws.ballot(g.mask, in.A))
		ws.broadcast(in.Dst, g.mask, v)
		ws.advance(gi)
	case ir.OpCall:
		if im.callee < 0 {
			ws.invalidate()
			return fmt.Errorf("call to unknown function %q", in.Callee)
		}
		for m := g.mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			if len(ws.stacks[l]) >= 64 {
				ws.invalidate()
				return fmt.Errorf("call stack overflow in lane %d", l)
			}
			ws.stacks[l] = append(ws.stacks[l], frame{ret: g.pc + 1})
		}
		// The whole group enters the callee together, like a branch.
		ws.removeGroup(gi)
		ws.ngroups = insertGroup(&ws.groupBuf, ws.ngroups, im.succ0, g.mask)
		if sink != nil {
			sink.Event(ws.event(EvCall, im, g.pc, -1, g.mask, uint32(im.callee)))
		}
	case ir.OpBr:
		ws.removeGroup(gi)
		ws.ngroups = insertGroup(&ws.groupBuf, ws.ngroups, im.succ0, g.mask)
	case ir.OpCBr:
		taken := ws.ballot(g.mask, in.A)
		ws.removeGroup(gi)
		if taken != 0 {
			ws.ngroups = insertGroup(&ws.groupBuf, ws.ngroups, im.succ0, taken)
		}
		if fell := g.mask &^ taken; fell != 0 {
			ws.ngroups = insertGroup(&ws.groupBuf, ws.ngroups, im.succ1, fell)
		}
		if sink != nil {
			sink.Event(ws.event(EvBranch, im, g.pc, -1, g.mask, taken))
		}
	case ir.OpRet:
		ws.invalidate()
		for m := g.mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			st := ws.stacks[l]
			if len(st) == 0 {
				if err := ws.exitLane(l); err != nil {
					return err
				}
				continue
			}
			ws.pcs[l] = st[len(st)-1].ret
			ws.stacks[l] = st[:len(st)-1]
		}
		if sink != nil {
			sink.Event(ws.event(EvRet, im, g.pc, -1, g.mask, 0))
		}
	case ir.OpExit:
		ws.invalidate()
		for m := g.mask; m != 0; m &= m - 1 {
			if err := ws.exitLane(bits.TrailingZeros32(m)); err != nil {
				return err
			}
		}
	default:
		// Data instructions: one dispatch, then one loop over the group.
		if l, err := ws.execData(in, g.mask); err != nil {
			ws.invalidate()
			return s.laneError(l, im, err)
		}
		ws.advance(gi)
	}

	s.metrics.Cycles += cost
	if s.afterIssue != nil {
		s.afterIssue(ws)
	}
	return nil
}

// arriveCTABar blocks the lanes of mask, issuing the ctabar at pc, on
// their CTA's workgroup barrier: they wait until every live lane of the
// CTA (across all its warps) has arrived, and the barrier then opens for
// the whole CTA at once — possibly right here, if these were the last.
// The blocked lanes' PC is recorded in pcs under either model.
func (ws *warpState) arriveCTABar(im *instrMeta, pc, mask uint32, sink EventSink) {
	s := ws.sim
	bar := im.in.Bar
	for m := mask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		ws.status[l] = laneCTAWaiting
		ws.waitBar[l] = int32(bar)
		ws.pcs[l] = pc
	}
	n := bits.OnesCount32(mask)
	ws.cta.blockOnBar(bar, n)
	s.metrics.CTABarWaits += int64(n)
	if sink != nil {
		sink.Event(ws.event(EvCTABarWait, im, pc, bar, mask, 0))
	}
	ws.cta.barCheck(s, bar)
}

// event builds, in the SM's scratch slot, an event of this warp located
// at instruction pc (im is its decode entry), stamped with the SM's
// current issue and cycle counts; bar is -1 on events that name no
// barrier. Every field is written, so nothing of the previous event
// shows through; the pointer is good until the SM's next event.
func (ws *warpState) event(kind EventKind, im *instrMeta, pc uint32, bar int, mask, aux uint32) *Event {
	s := ws.sim
	es := s.scratch()
	ev, names := &es.ev, &es.names[im.blkID]
	ev.Kind, ev.Bar = kind, int16(bar)
	ev.Warp, ev.SM, ev.CTA = int32(ws.index), s.smIndex, ws.ctaIndex
	ev.PC, ev.Fn, ev.Blk, ev.Ins = int32(pc), im.fn, im.blk, im.ins
	ev.FnName, ev.BlockName = names.fn, names.blk
	ev.Issue, ev.Cycle, ev.Cost = s.metrics.Issues, s.metrics.Cycles, 0
	ev.Mask, ev.Aux = mask, aux
	return ev
}

// releaseEvent builds, in the SM's scratch slot, the event of a barrier
// (kind EvBarrierRelease) or workgroup barrier (EvCTABarRelease) letting
// the lanes of mask go. A release has no instruction site.
func (ws *warpState) releaseEvent(kind EventKind, bar int, mask uint32) *Event {
	s := ws.sim
	es := s.scratch()
	es.ev = Event{
		Kind: kind, Bar: int16(bar), Warp: int32(ws.index), SM: s.smIndex, CTA: ws.ctaIndex,
		PC: -1, Fn: -1, Blk: -1, Ins: -1,
		Issue: s.metrics.Issues, Cycle: s.metrics.Cycles,
		Mask: mask,
	}
	return &es.ev
}

// laneError wraps a data instruction's fault with the lane that raised
// it and the instruction's location.
func (s *sim) laneError(l int, im *instrMeta, err error) error {
	fnName, blkName := s.names(im)
	return fmt.Errorf("lane %d at %s.%s#%d: %w", l, fnName, blkName, im.ins, err)
}

// gatherAddrs collects the addresses a memory instruction's active lanes
// access into the warp's scratch buffer, in ascending lane order.
func (ws *warpState) gatherAddrs(in *ir.Instr, mask uint32) []int64 {
	ra := ws.icol(in.A)
	n := 0
	for m := mask; m != 0; m &= m - 1 {
		ws.addrBuf[n&laneMask] = ra[bits.TrailingZeros32(m)&laneMask] + in.Imm
		n++
	}
	return ws.addrBuf[:n]
}

// ballot returns the lanes of mask whose integer register r is non-zero.
func (ws *warpState) ballot(mask uint32, r ir.Reg) uint32 {
	col := ws.icol(r)
	var ballot uint32
	for m := mask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m) & laneMask
		if col[l] != 0 {
			ballot |= 1 << l
		}
	}
	return ballot
}

// broadcast writes v to integer register r of every lane of mask.
func (ws *warpState) broadcast(r ir.Reg, mask uint32, v int64) {
	col := ws.icol(r)
	for m := mask; m != 0; m &= m - 1 {
		col[bits.TrailingZeros32(m)&laneMask] = v
	}
}

// voteValue combines a warp-synchronous vote: ballot holds the active
// lanes of mask whose predicate is true, and the combined result is
// written to every active lane. The result depends on which lanes are
// converged at the instruction — exactly why these ops pin down
// convergence.
func voteValue(op ir.Opcode, mask, ballot uint32) int64 {
	switch op {
	case ir.OpVoteAny:
		return b2i(ballot != 0)
	case ir.OpVoteAll:
		return b2i(ballot == mask)
	default: // OpBallot
		return int64(ballot)
	}
}

// advance steps table entry gi — and with it every lane of the group —
// past a non-control instruction. The successor PC stays in the same
// block, so it cannot overtake the next entry: the table stays sorted,
// and the only possible collision is a merge with that entry.
func (ws *warpState) advance(gi int) {
	g := &ws.groupBuf[gi]
	g.pc++
	if gi+1 < ws.ngroups && ws.groupBuf[gi+1].pc == g.pc {
		g.mask |= ws.groupBuf[gi+1].mask
		ws.removeGroup(gi + 1)
	}
}

// laneMask bounds a lane index so the compiler can drop the bounds check
// on a [WarpWidth] column: l := bits.TrailingZeros32(m) & laneMask.
const laneMask = ir.WarpWidth - 1

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (s *sim) globalOOB(a int64) error {
	return fmt.Errorf("memory access out of bounds: address %d (memory %d words)", a, s.memLen)
}

// sharedOOB rejects a CTA shared-memory address; a module without a
// sharedwords declaration has a zero-length segment, so any shared
// access is rejected.
func sharedOOB(a int64, words int) error {
	return fmt.Errorf("shared memory access out of bounds: address %d (shared %d words)", a, words)
}

// execData runs one data instruction for every lane of mask: the opcode
// (and the B-operand-immediate test) is dispatched once, the operand
// columns the opcode really uses are taken once, then each case is a
// single bounds-check-free loop over the set bits in ascending lane
// order. On an out-of-bounds access it stops at the first offending lane
// and returns it with the error; lower lanes have already executed.
func (ws *warpState) execData(in *ir.Instr, mask uint32) (int, error) {
	s := ws.sim
	d, a, b, c := in.Dst, in.A, in.B, in.C
	imm, fimm := in.Imm, in.FImm
	shared := ws.cta.shared
	switch in.Op {
	case ir.OpConst:
		ws.broadcast(d, mask, imm)
	case ir.OpMov:
		rd, ra := ws.icol(d), ws.icol(a)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			rd[l] = ra[l]
		}
	case ir.OpAdd:
		rd, ra := ws.icol(d), ws.icol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = ra[l] + imm
			}
		} else {
			rb := ws.icol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = ra[l] + rb[l]
			}
		}
	case ir.OpSub:
		rd, ra := ws.icol(d), ws.icol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = ra[l] - imm
			}
		} else {
			rb := ws.icol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = ra[l] - rb[l]
			}
		}
	case ir.OpMul:
		rd, ra := ws.icol(d), ws.icol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = ra[l] * imm
			}
		} else {
			rb := ws.icol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = ra[l] * rb[l]
			}
		}
	case ir.OpDiv:
		rd, ra := ws.icol(d), ws.icol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				if y := imm; y != 0 {
					rd[l] = ra[l] / y
				} else {
					rd[l] = 0
				}
			}
		} else {
			rb := ws.icol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				if y := rb[l]; y != 0 {
					rd[l] = ra[l] / y
				} else {
					rd[l] = 0
				}
			}
		}
	case ir.OpMod:
		rd, ra := ws.icol(d), ws.icol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				if y := imm; y != 0 {
					rd[l] = ra[l] % y
				} else {
					rd[l] = 0
				}
			}
		} else {
			rb := ws.icol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				if y := rb[l]; y != 0 {
					rd[l] = ra[l] % y
				} else {
					rd[l] = 0
				}
			}
		}
	case ir.OpMin:
		rd, ra := ws.icol(d), ws.icol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = min(ra[l], imm)
			}
		} else {
			rb := ws.icol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = min(ra[l], rb[l])
			}
		}
	case ir.OpMax:
		rd, ra := ws.icol(d), ws.icol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = max(ra[l], imm)
			}
		} else {
			rb := ws.icol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = max(ra[l], rb[l])
			}
		}
	case ir.OpAnd:
		rd, ra := ws.icol(d), ws.icol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = ra[l] & imm
			}
		} else {
			rb := ws.icol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = ra[l] & rb[l]
			}
		}
	case ir.OpOr:
		rd, ra := ws.icol(d), ws.icol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = ra[l] | imm
			}
		} else {
			rb := ws.icol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = ra[l] | rb[l]
			}
		}
	case ir.OpXor:
		rd, ra := ws.icol(d), ws.icol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = ra[l] ^ imm
			}
		} else {
			rb := ws.icol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = ra[l] ^ rb[l]
			}
		}
	case ir.OpShl:
		rd, ra := ws.icol(d), ws.icol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = ra[l] << (uint64(imm) & 63)
			}
		} else {
			rb := ws.icol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = ra[l] << (uint64(rb[l]) & 63)
			}
		}
	case ir.OpShr:
		rd, ra := ws.icol(d), ws.icol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = int64(uint64(ra[l]) >> (uint64(imm) & 63))
			}
		} else {
			rb := ws.icol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = int64(uint64(ra[l]) >> (uint64(rb[l]) & 63))
			}
		}
	case ir.OpNot:
		rd, ra := ws.icol(d), ws.icol(a)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			rd[l] = ^ra[l]
		}
	case ir.OpNeg:
		rd, ra := ws.icol(d), ws.icol(a)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			rd[l] = -ra[l]
		}
	case ir.OpSetEQ:
		rd, ra := ws.icol(d), ws.icol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = b2i(ra[l] == imm)
			}
		} else {
			rb := ws.icol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = b2i(ra[l] == rb[l])
			}
		}
	case ir.OpSetNE:
		rd, ra := ws.icol(d), ws.icol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = b2i(ra[l] != imm)
			}
		} else {
			rb := ws.icol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = b2i(ra[l] != rb[l])
			}
		}
	case ir.OpSetLT:
		rd, ra := ws.icol(d), ws.icol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = b2i(ra[l] < imm)
			}
		} else {
			rb := ws.icol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = b2i(ra[l] < rb[l])
			}
		}
	case ir.OpSetLE:
		rd, ra := ws.icol(d), ws.icol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = b2i(ra[l] <= imm)
			}
		} else {
			rb := ws.icol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = b2i(ra[l] <= rb[l])
			}
		}
	case ir.OpSetGT:
		rd, ra := ws.icol(d), ws.icol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = b2i(ra[l] > imm)
			}
		} else {
			rb := ws.icol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = b2i(ra[l] > rb[l])
			}
		}
	case ir.OpSetGE:
		rd, ra := ws.icol(d), ws.icol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = b2i(ra[l] >= imm)
			}
		} else {
			rb := ws.icol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = b2i(ra[l] >= rb[l])
			}
		}
	case ir.OpSelect:
		rd, ra, rb, rc := ws.icol(d), ws.icol(a), ws.icol(b), ws.icol(c)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			if ra[l] != 0 {
				rd[l] = rb[l]
			} else {
				rd[l] = rc[l]
			}
		}

	case ir.OpFConst:
		fd := ws.fcol(d)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			fd[l] = fimm
		}
	case ir.OpFMov:
		fd, fa := ws.fcol(d), ws.fcol(a)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			fd[l] = fa[l]
		}
	case ir.OpFAdd:
		fd, fa := ws.fcol(d), ws.fcol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				fd[l] = fa[l] + fimm
			}
		} else {
			fb := ws.fcol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				fd[l] = fa[l] + fb[l]
			}
		}
	case ir.OpFSub:
		fd, fa := ws.fcol(d), ws.fcol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				fd[l] = fa[l] - fimm
			}
		} else {
			fb := ws.fcol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				fd[l] = fa[l] - fb[l]
			}
		}
	case ir.OpFMul:
		fd, fa := ws.fcol(d), ws.fcol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				fd[l] = fa[l] * fimm
			}
		} else {
			fb := ws.fcol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				fd[l] = fa[l] * fb[l]
			}
		}
	case ir.OpFDiv:
		fd, fa := ws.fcol(d), ws.fcol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				fd[l] = fa[l] / fimm
			}
		} else {
			fb := ws.fcol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				fd[l] = fa[l] / fb[l]
			}
		}
	case ir.OpFMin:
		fd, fa := ws.fcol(d), ws.fcol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				fd[l] = math.Min(fa[l], fimm)
			}
		} else {
			fb := ws.fcol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				fd[l] = math.Min(fa[l], fb[l])
			}
		}
	case ir.OpFMax:
		fd, fa := ws.fcol(d), ws.fcol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				fd[l] = math.Max(fa[l], fimm)
			}
		} else {
			fb := ws.fcol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				fd[l] = math.Max(fa[l], fb[l])
			}
		}
	case ir.OpFNeg:
		fd, fa := ws.fcol(d), ws.fcol(a)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			fd[l] = -fa[l]
		}
	case ir.OpFAbs:
		fd, fa := ws.fcol(d), ws.fcol(a)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			fd[l] = math.Abs(fa[l])
		}
	case ir.OpFSqrt:
		fd, fa := ws.fcol(d), ws.fcol(a)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			fd[l] = math.Sqrt(fa[l])
		}
	case ir.OpFExp:
		fd, fa := ws.fcol(d), ws.fcol(a)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			fd[l] = math.Exp(fa[l])
		}
	case ir.OpFLog:
		fd, fa := ws.fcol(d), ws.fcol(a)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			fd[l] = math.Log(fa[l])
		}
	case ir.OpFSin:
		fd, fa := ws.fcol(d), ws.fcol(a)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			fd[l] = math.Sin(fa[l])
		}
	case ir.OpFCos:
		fd, fa := ws.fcol(d), ws.fcol(a)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			fd[l] = math.Cos(fa[l])
		}
	case ir.OpFMA:
		fd, fa, fb, fc := ws.fcol(d), ws.fcol(a), ws.fcol(b), ws.fcol(c)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			fd[l] = fa[l]*fb[l] + fc[l]
		}
	case ir.OpFSetEQ:
		rd, fa := ws.icol(d), ws.fcol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = b2i(fa[l] == fimm)
			}
		} else {
			fb := ws.fcol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = b2i(fa[l] == fb[l])
			}
		}
	case ir.OpFSetNE:
		rd, fa := ws.icol(d), ws.fcol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = b2i(fa[l] != fimm)
			}
		} else {
			fb := ws.fcol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = b2i(fa[l] != fb[l])
			}
		}
	case ir.OpFSetLT:
		rd, fa := ws.icol(d), ws.fcol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = b2i(fa[l] < fimm)
			}
		} else {
			fb := ws.fcol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = b2i(fa[l] < fb[l])
			}
		}
	case ir.OpFSetLE:
		rd, fa := ws.icol(d), ws.fcol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = b2i(fa[l] <= fimm)
			}
		} else {
			fb := ws.fcol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = b2i(fa[l] <= fb[l])
			}
		}
	case ir.OpFSetGT:
		rd, fa := ws.icol(d), ws.fcol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = b2i(fa[l] > fimm)
			}
		} else {
			fb := ws.fcol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = b2i(fa[l] > fb[l])
			}
		}
	case ir.OpFSetGE:
		rd, fa := ws.icol(d), ws.fcol(a)
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = b2i(fa[l] >= fimm)
			}
		} else {
			fb := ws.fcol(b)
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & laneMask
				rd[l] = b2i(fa[l] >= fb[l])
			}
		}
	case ir.OpItoF:
		fd, ra := ws.fcol(d), ws.icol(a)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			fd[l] = float64(ra[l])
		}
	case ir.OpFtoI:
		rd, fa := ws.icol(d), ws.fcol(a)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			rd[l] = int64(fa[l])
		}

	case ir.OpTid:
		rd := ws.icol(d)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			rd[l] = int64(ws.tidBase + l)
		}
	case ir.OpLane:
		rd := ws.icol(d)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			rd[l] = int64(l)
		}
	case ir.OpNumThreads:
		ws.broadcast(d, mask, int64(s.cfg.Threads))
	case ir.OpCTAId:
		ws.broadcast(d, mask, int64(ws.ctaIndex))
	case ir.OpCTATid:
		rd := ws.icol(d)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			rd[l] = int64(ws.ctatidBase + l)
		}
	case ir.OpCTASize:
		ws.broadcast(d, mask, int64(s.ctaSize))
	case ir.OpRand:
		rd := ws.icol(d)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			rd[l] = ws.rngs[l].Int63()
		}
	case ir.OpFRand:
		fd := ws.fcol(d)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			fd[l] = ws.rngs[l].Float64()
		}

	case ir.OpLoad, ir.OpStore, ir.OpFLoad, ir.OpFStore, ir.OpAtomAdd, ir.OpFAtomAdd:
		return ws.execGlobal(in, mask)

	case ir.OpSharedLoad:
		rd, ra := ws.icol(d), ws.icol(a)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			adr := ra[l] + imm
			if adr < 0 || adr >= int64(len(shared)) {
				return l, sharedOOB(adr, len(shared))
			}
			rd[l] = int64(shared[adr])
			s.metrics.SharedAccesses++
		}
	case ir.OpSharedStore:
		ra, rb := ws.icol(a), ws.icol(b)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			adr := ra[l] + imm
			if adr < 0 || adr >= int64(len(shared)) {
				return l, sharedOOB(adr, len(shared))
			}
			shared[adr] = uint64(rb[l])
			s.metrics.SharedAccesses++
		}
	case ir.OpFSharedLoad:
		fd, ra := ws.fcol(d), ws.icol(a)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			adr := ra[l] + imm
			if adr < 0 || adr >= int64(len(shared)) {
				return l, sharedOOB(adr, len(shared))
			}
			fd[l] = math.Float64frombits(shared[adr])
			s.metrics.SharedAccesses++
		}
	case ir.OpFSharedStore:
		ra, fb := ws.icol(a), ws.fcol(b)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			adr := ra[l] + imm
			if adr < 0 || adr >= int64(len(shared)) {
				return l, sharedOOB(adr, len(shared))
			}
			shared[adr] = math.Float64bits(fb[l])
			s.metrics.SharedAccesses++
		}

	case ir.OpArrived:
		ws.broadcast(d, mask, int64(bits.OnesCount32(ws.waiting[in.Bar])))
	case ir.OpNop:
		// nothing
	default:
		return bits.TrailingZeros32(mask), fmt.Errorf("unhandled opcode %s", in.Op)
	}
	return 0, nil
}

// memWin is the span of global memory the lanes of one instruction are
// in: words holds the words at addresses lo, lo+1, …, and dirty, when the
// span is a CoW page the SM has a private copy of, the bitmap of its
// stored words.
type memWin struct {
	s            *sim
	stores       bool
	words, dirty []uint64
	lo           int64
}

// oobWord is what at returns for an address out of bounds.
const oobWord = ^uint64(0)

// at returns the index in w.words of global-memory word adr. The memory
// is picked per instruction, not per word: only an address outside the
// span asks for the memory behind it (window) — once on a flat launch,
// whose span is the whole image, so the span test is also the bounds
// check, and once per page on a CoW fork, where the 32 lanes of a
// coalesced access share one page-table lookup.
func (w *memWin) at(adr int64) uint64 {
	if off := uint64(adr - w.lo); off < uint64(len(w.words)) {
		return off
	}
	return w.window(adr)
}

// mark records a store to word off of the span.
func (w *memWin) mark(off uint64) {
	if w.dirty != nil {
		w.dirty[off>>6] |= 1 << (off & 63)
	}
}

// window moves w to the span that holds word adr and returns its index
// there, or oobWord. This is where the launch's memory representation is
// told apart: a flat launch's span is its whole image; a CoW fork's is
// the page of adr — for a load of a page the SM has not stored to, the
// template's words, else the SM's private copy, faulted in first if need
// be.
func (w *memWin) window(adr int64) uint64 {
	s := w.s
	if adr < 0 || adr >= int64(s.memLen) {
		return oobWord
	}
	c := s.cow
	if c == nil {
		w.words = s.mem
		return uint64(adr)
	}
	pi := int(adr >> cowPageShift)
	p := &c.pages[pi]
	start := pi << cowPageShift
	end := min(start+cowPageWords, len(c.base))
	if w.stores && p.words == nil {
		c.materialize(p, pi)
	}
	w.lo, w.words, w.dirty = int64(start), p.words, p.dirty
	if p.words == nil {
		w.words = c.base[start:]
	}
	w.words = w.words[:end-start]
	return uint64(adr & cowPageMask)
}

// execGlobal is execData for the global-memory opcodes.
func (ws *warpState) execGlobal(in *ir.Instr, mask uint32) (int, error) {
	s := ws.sim
	d, b, imm := in.Dst, in.B, in.Imm
	ra := ws.icol(in.A)
	w := memWin{s: s, stores: in.Op != ir.OpLoad && in.Op != ir.OpFLoad}
	switch in.Op {
	case ir.OpLoad:
		rd := ws.icol(d)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			off := w.at(ra[l] + imm)
			if off == oobWord {
				return l, s.globalOOB(ra[l] + imm)
			}
			rd[l] = int64(w.words[off])
		}
	case ir.OpStore:
		rb := ws.icol(b)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			off := w.at(ra[l] + imm)
			if off == oobWord {
				return l, s.globalOOB(ra[l] + imm)
			}
			w.words[off] = uint64(rb[l])
			w.mark(off)
		}
	case ir.OpFLoad:
		fd := ws.fcol(d)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			off := w.at(ra[l] + imm)
			if off == oobWord {
				return l, s.globalOOB(ra[l] + imm)
			}
			fd[l] = math.Float64frombits(w.words[off])
		}
	case ir.OpFStore:
		fb := ws.fcol(b)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			off := w.at(ra[l] + imm)
			if off == oobWord {
				return l, s.globalOOB(ra[l] + imm)
			}
			w.words[off] = math.Float64bits(fb[l])
			w.mark(off)
		}
	case ir.OpAtomAdd:
		rd, rb := ws.icol(d), ws.icol(b)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			off := w.at(ra[l] + imm)
			if off == oobWord {
				return l, s.globalOOB(ra[l] + imm)
			}
			old := int64(w.words[off])
			w.words[off] = uint64(old + rb[l])
			rd[l] = old
			w.mark(off)
		}
	case ir.OpFAtomAdd:
		fd, fb := ws.fcol(d), ws.fcol(b)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & laneMask
			off := w.at(ra[l] + imm)
			if off == oobWord {
				return l, s.globalOOB(ra[l] + imm)
			}
			old := math.Float64frombits(w.words[off])
			w.words[off] = math.Float64bits(old + fb[l])
			fd[l] = old
			w.mark(off)
		}
	}
	return 0, nil
}
