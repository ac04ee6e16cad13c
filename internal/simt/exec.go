package simt

import (
	"fmt"
	"math"
	"math/bits"

	"specrecon/internal/ir"
)

// issue executes one warp instruction for every lane of entry gi of the
// warp's group table, updates the metrics, advances the lanes' PCs and
// keeps the table current: instructions that move the whole group
// uniformly (data ops, join, cancel, votes, branches, calls) edit the
// entry in place; everything else — and every error return — marks the table
// stale so the next groups() call rescans the lanes.
func (ws *warpState) issue(gi int) error {
	s := ws.sim
	g := ws.groupBuf[gi]
	pc := g.pc.pc()
	f := s.mod.Funcs[pc.fn]
	blk := f.Blocks[pc.blk]
	in := &blk.Instrs[pc.ins]
	im := &s.meta[pc.fn][pc.blk][pc.ins]
	lanes := &ws.lanes

	active := bits.OnesCount32(g.mask)
	s.issues++
	s.metrics.Issues++
	s.metrics.ActiveLaneSum += int64(active)
	s.metrics.opClassCounts[im.class]++
	cost := im.latency

	if pc.ins == 0 {
		s.metrics.addBlockVisit(pc.fn, pc.blk, int64(active))
	}
	sink := s.cfg.Events

	// Memory instructions compute per-warp transaction costs from the
	// coalescing of the active lanes' addresses.
	var hits0, misses0 int64
	if im.isMem {
		addrs := ws.addrBuf[:0]
		for m := g.mask; m != 0; m &= m - 1 {
			addrs = append(addrs, lanes[bits.TrailingZeros32(m)].regs[in.A]+in.Imm)
		}
		hits0, misses0 = s.metrics.CacheHits, s.metrics.CacheMisses
		cost += s.cache.access(addrs, &s.metrics)
		// Everything beyond the base latency is memory transaction time;
		// the occupancy sampler windows this accumulator into per-sample
		// mem-stall attribution (sample.go).
		s.memStallAcc += cost - im.latency
	}

	if sink != nil {
		ev := Event{
			Kind: EvIssue, Bar: -1, Warp: int32(ws.index), SM: s.smIndex, CTA: ws.ctaIndex, PC: im.pcid,
			Fn: int32(pc.fn), Blk: int32(pc.blk), Ins: int32(pc.ins),
			FnName: f.Name, BlockName: blk.Name,
			Issue: s.metrics.Issues, Cycle: s.metrics.Cycles, Cost: cost,
			Mask: g.mask,
		}
		sink.Event(ev)
		if im.isMem {
			ev.Kind = EvCacheAccess
			ev.Cost = 0
			ev.Aux = uint32(s.metrics.CacheHits-hits0)<<16 | uint32(s.metrics.CacheMisses-misses0)
			sink.Event(ev)
		}
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
		ws.stale = true
		var blocked uint32
		for m := g.mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			ln := lanes[l]
			if ws.masks[in.Bar]&(1<<l) == 0 {
				// Not a participant: fall through.
				ln.pc.ins++
				continue
			}
			ln.status = laneWaiting
			ln.waitBar = in.Bar
			ws.waiting[in.Bar] |= 1 << l
			blocked |= 1 << l
			s.metrics.BarrierWaits++
		}
		if sink != nil && blocked != 0 {
			sink.Event(Event{
				Kind: EvBarrierWait, Bar: int16(in.Bar), Warp: int32(ws.index), SM: s.smIndex, CTA: ws.ctaIndex,
				PC: im.pcid, Fn: int32(pc.fn), Blk: int32(pc.blk), Ins: int32(pc.ins),
				FnName: f.Name, BlockName: blk.Name,
				Issue: s.metrics.Issues, Cycle: s.metrics.Cycles,
				Mask: blocked,
			})
		}
		if in.Op == ir.OpWaitN {
			ws.releaseCheckSoft(in.Bar, int(in.Imm))
		} else {
			ws.releaseCheck(in.Bar)
		}
	case ir.OpCTABar:
		// Workgroup barrier: the active lanes block until every live
		// lane of the CTA (across all its warps) arrives at barrier
		// in.Bar; the barrier then opens for the whole CTA at once.
		ws.stale = true
		for m := g.mask; m != 0; m &= m - 1 {
			ln := lanes[bits.TrailingZeros32(m)]
			ln.status = laneCTAWaiting
			ln.waitBar = in.Bar
		}
		ws.cta.blockOnBar(in.Bar, active)
		s.metrics.CTABarWaits += int64(active)
		if sink != nil {
			sink.Event(Event{
				Kind: EvCTABarWait, Bar: int16(in.Bar), Warp: int32(ws.index), SM: s.smIndex, CTA: ws.ctaIndex,
				PC: im.pcid, Fn: int32(pc.fn), Blk: int32(pc.blk), Ins: int32(pc.ins),
				FnName: f.Name, BlockName: blk.Name,
				Issue: s.metrics.Issues, Cycle: s.metrics.Cycles,
				Mask: g.mask,
			})
		}
		ws.cta.barCheck(s, in.Bar)
	case ir.OpWarpSync:
		ws.stale = true
		for m := g.mask; m != 0; m &= m - 1 {
			lanes[bits.TrailingZeros32(m)].status = laneSyncing
		}
		ws.syncCheck()
	case ir.OpVoteAny, ir.OpVoteAll, ir.OpBallot:
		v := voteValue(in.Op, g.mask, ws.ballot(g.mask, in.A))
		for m := g.mask; m != 0; m &= m - 1 {
			lanes[bits.TrailingZeros32(m)].regs[in.Dst] = v
		}
		ws.advance(gi)
	case ir.OpCall:
		callee := int(im.callee)
		if callee < 0 {
			ws.stale = true
			return fmt.Errorf("call to unknown function %q", in.Callee)
		}
		ret := pc
		ret.ins++
		entry := pcT{fn: callee}
		for m := g.mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			ln := lanes[l]
			if len(ln.stack) >= 64 {
				ws.stale = true
				return fmt.Errorf("call stack overflow in lane %d", l)
			}
			ln.stack = append(ln.stack, frame{ret: ret})
			ln.pc = entry
		}
		// The whole group enters the callee together, like a branch.
		ws.removeGroup(gi)
		ws.ngroups = insertGroup(&ws.groupBuf, ws.ngroups, entry.key(), g.mask)
		if sink != nil {
			sink.Event(Event{
				Kind: EvCall, Bar: -1, Warp: int32(ws.index), SM: s.smIndex, CTA: ws.ctaIndex,
				PC: im.pcid, Fn: int32(pc.fn), Blk: int32(pc.blk), Ins: int32(pc.ins),
				FnName: f.Name, BlockName: blk.Name,
				Issue: s.metrics.Issues, Cycle: s.metrics.Cycles,
				Mask: g.mask, Aux: uint32(callee),
			})
		}
	case ir.OpBr:
		t := pcT{fn: pc.fn, blk: blk.Succs[0].Index}
		for m := g.mask; m != 0; m &= m - 1 {
			lanes[bits.TrailingZeros32(m)].pc = t
		}
		ws.removeGroup(gi)
		ws.ngroups = insertGroup(&ws.groupBuf, ws.ngroups, t.key(), g.mask)
	case ir.OpCBr:
		then := pcT{fn: pc.fn, blk: blk.Succs[0].Index}
		els := pcT{fn: pc.fn, blk: blk.Succs[1].Index}
		var taken uint32
		for m := g.mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			ln := lanes[l]
			if ln.regs[in.A] != 0 {
				ln.pc = then
				taken |= 1 << l
			} else {
				ln.pc = els
			}
		}
		ws.removeGroup(gi)
		if taken != 0 {
			ws.ngroups = insertGroup(&ws.groupBuf, ws.ngroups, then.key(), taken)
		}
		if fell := g.mask &^ taken; fell != 0 {
			ws.ngroups = insertGroup(&ws.groupBuf, ws.ngroups, els.key(), fell)
		}
		if sink != nil {
			sink.Event(Event{
				Kind: EvBranch, Bar: -1, Warp: int32(ws.index), SM: s.smIndex, CTA: ws.ctaIndex,
				PC: im.pcid, Fn: int32(pc.fn), Blk: int32(pc.blk), Ins: int32(pc.ins),
				FnName: f.Name, BlockName: blk.Name,
				Issue: s.metrics.Issues, Cycle: s.metrics.Cycles,
				Mask: g.mask, Aux: taken,
			})
		}
	case ir.OpRet:
		ws.stale = true
		for m := g.mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			ln := lanes[l]
			if len(ln.stack) == 0 {
				if err := ws.exitLane(l); err != nil {
					return err
				}
				continue
			}
			ln.pc = ln.stack[len(ln.stack)-1].ret
			ln.stack = ln.stack[:len(ln.stack)-1]
		}
		if sink != nil {
			sink.Event(Event{
				Kind: EvRet, Bar: -1, Warp: int32(ws.index), SM: s.smIndex, CTA: ws.ctaIndex,
				PC: im.pcid, Fn: int32(pc.fn), Blk: int32(pc.blk), Ins: int32(pc.ins),
				FnName: f.Name, BlockName: blk.Name,
				Issue: s.metrics.Issues, Cycle: s.metrics.Cycles,
				Mask: g.mask,
			})
		}
	case ir.OpExit:
		ws.stale = true
		for m := g.mask; m != 0; m &= m - 1 {
			if err := ws.exitLane(bits.TrailingZeros32(m)); err != nil {
				return err
			}
		}
	default:
		// Data instructions: one dispatch, then one loop over the group.
		if l, err := ws.execData(in, g.mask); err != nil {
			ws.stale = true
			return fmt.Errorf("lane %d at %s.%s#%d: %w", l, f.Name, blk.Name, pc.ins, err)
		}
		ws.advance(gi)
	}

	s.metrics.Cycles += cost
	if s.afterIssue != nil {
		s.afterIssue(ws)
	}
	return nil
}

// ballot returns the lanes of mask whose integer register r is non-zero.
func (ws *warpState) ballot(mask uint32, r ir.Reg) uint32 {
	var ballot uint32
	for m := mask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		if ws.lanes[l].regs[r] != 0 {
			ballot |= 1 << l
		}
	}
	return ballot
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

// advance steps every lane of table entry gi past a non-control
// instruction and the entry's PC with them. The successor PC stays in
// the same block, so it cannot overtake the next entry: the table stays
// sorted, and the only possible collision is a merge with that entry.
func (ws *warpState) advance(gi int) {
	g := &ws.groupBuf[gi]
	for m := g.mask; m != 0; m &= m - 1 {
		ws.lanes[bits.TrailingZeros32(m)].pc.ins++
	}
	g.pc++
	if gi+1 < ws.ngroups && ws.groupBuf[gi+1].pc == g.pc {
		g.mask |= ws.groupBuf[gi+1].mask
		ws.removeGroup(gi + 1)
	}
}

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
// (and the B-operand-immediate test) is dispatched once, then each case
// is a single loop over the set bits in ascending lane order. On an
// out-of-bounds access it stops at the first offending lane and returns
// it with the error; lower lanes have already executed.
func (ws *warpState) execData(in *ir.Instr, mask uint32) (int, error) {
	s := ws.sim
	lanes := &ws.lanes
	d, a, b, c := in.Dst, in.A, in.B, in.C
	imm, fimm := in.Imm, in.FImm
	shared := ws.cta.shared
	switch in.Op {
	case ir.OpConst:
		for m := mask; m != 0; m &= m - 1 {
			r := lanes[bits.TrailingZeros32(m)].regs
			r[d] = imm
		}
	case ir.OpMov:
		for m := mask; m != 0; m &= m - 1 {
			r := lanes[bits.TrailingZeros32(m)].regs
			r[d] = r[a]
		}
	case ir.OpAdd:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = r[a] + imm
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = r[a] + r[b]
			}
		}
	case ir.OpSub:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = r[a] - imm
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = r[a] - r[b]
			}
		}
	case ir.OpMul:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = r[a] * imm
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = r[a] * r[b]
			}
		}
	case ir.OpDiv:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				if imm != 0 {
					r[d] = r[a] / imm
				} else {
					r[d] = 0
				}
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				if y := r[b]; y != 0 {
					r[d] = r[a] / y
				} else {
					r[d] = 0
				}
			}
		}
	case ir.OpMod:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				if imm != 0 {
					r[d] = r[a] % imm
				} else {
					r[d] = 0
				}
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				if y := r[b]; y != 0 {
					r[d] = r[a] % y
				} else {
					r[d] = 0
				}
			}
		}
	case ir.OpMin:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = min(r[a], imm)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = min(r[a], r[b])
			}
		}
	case ir.OpMax:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = max(r[a], imm)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = max(r[a], r[b])
			}
		}
	case ir.OpAnd:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = r[a] & imm
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = r[a] & r[b]
			}
		}
	case ir.OpOr:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = r[a] | imm
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = r[a] | r[b]
			}
		}
	case ir.OpXor:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = r[a] ^ imm
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = r[a] ^ r[b]
			}
		}
	case ir.OpShl:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = r[a] << (uint64(imm) & 63)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = r[a] << (uint64(r[b]) & 63)
			}
		}
	case ir.OpShr:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = int64(uint64(r[a]) >> (uint64(imm) & 63))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = int64(uint64(r[a]) >> (uint64(r[b]) & 63))
			}
		}
	case ir.OpNot:
		for m := mask; m != 0; m &= m - 1 {
			r := lanes[bits.TrailingZeros32(m)].regs
			r[d] = ^r[a]
		}
	case ir.OpNeg:
		for m := mask; m != 0; m &= m - 1 {
			r := lanes[bits.TrailingZeros32(m)].regs
			r[d] = -r[a]
		}
	case ir.OpSetEQ:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = b2i(r[a] == imm)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = b2i(r[a] == r[b])
			}
		}
	case ir.OpSetNE:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = b2i(r[a] != imm)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = b2i(r[a] != r[b])
			}
		}
	case ir.OpSetLT:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = b2i(r[a] < imm)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = b2i(r[a] < r[b])
			}
		}
	case ir.OpSetLE:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = b2i(r[a] <= imm)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = b2i(r[a] <= r[b])
			}
		}
	case ir.OpSetGT:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = b2i(r[a] > imm)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = b2i(r[a] > r[b])
			}
		}
	case ir.OpSetGE:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = b2i(r[a] >= imm)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				r := lanes[bits.TrailingZeros32(m)].regs
				r[d] = b2i(r[a] >= r[b])
			}
		}
	case ir.OpSelect:
		for m := mask; m != 0; m &= m - 1 {
			r := lanes[bits.TrailingZeros32(m)].regs
			if r[a] != 0 {
				r[d] = r[b]
			} else {
				r[d] = r[c]
			}
		}

	case ir.OpFConst:
		for m := mask; m != 0; m &= m - 1 {
			f := lanes[bits.TrailingZeros32(m)].fregs
			f[d] = fimm
		}
	case ir.OpFMov:
		for m := mask; m != 0; m &= m - 1 {
			f := lanes[bits.TrailingZeros32(m)].fregs
			f[d] = f[a]
		}
	case ir.OpFAdd:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				f := lanes[bits.TrailingZeros32(m)].fregs
				f[d] = f[a] + fimm
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				f := lanes[bits.TrailingZeros32(m)].fregs
				f[d] = f[a] + f[b]
			}
		}
	case ir.OpFSub:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				f := lanes[bits.TrailingZeros32(m)].fregs
				f[d] = f[a] - fimm
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				f := lanes[bits.TrailingZeros32(m)].fregs
				f[d] = f[a] - f[b]
			}
		}
	case ir.OpFMul:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				f := lanes[bits.TrailingZeros32(m)].fregs
				f[d] = f[a] * fimm
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				f := lanes[bits.TrailingZeros32(m)].fregs
				f[d] = f[a] * f[b]
			}
		}
	case ir.OpFDiv:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				f := lanes[bits.TrailingZeros32(m)].fregs
				f[d] = f[a] / fimm
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				f := lanes[bits.TrailingZeros32(m)].fregs
				f[d] = f[a] / f[b]
			}
		}
	case ir.OpFMin:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				f := lanes[bits.TrailingZeros32(m)].fregs
				f[d] = math.Min(f[a], fimm)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				f := lanes[bits.TrailingZeros32(m)].fregs
				f[d] = math.Min(f[a], f[b])
			}
		}
	case ir.OpFMax:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				f := lanes[bits.TrailingZeros32(m)].fregs
				f[d] = math.Max(f[a], fimm)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				f := lanes[bits.TrailingZeros32(m)].fregs
				f[d] = math.Max(f[a], f[b])
			}
		}
	case ir.OpFNeg:
		for m := mask; m != 0; m &= m - 1 {
			f := lanes[bits.TrailingZeros32(m)].fregs
			f[d] = -f[a]
		}
	case ir.OpFAbs:
		for m := mask; m != 0; m &= m - 1 {
			f := lanes[bits.TrailingZeros32(m)].fregs
			f[d] = math.Abs(f[a])
		}
	case ir.OpFSqrt:
		for m := mask; m != 0; m &= m - 1 {
			f := lanes[bits.TrailingZeros32(m)].fregs
			f[d] = math.Sqrt(f[a])
		}
	case ir.OpFExp:
		for m := mask; m != 0; m &= m - 1 {
			f := lanes[bits.TrailingZeros32(m)].fregs
			f[d] = math.Exp(f[a])
		}
	case ir.OpFLog:
		for m := mask; m != 0; m &= m - 1 {
			f := lanes[bits.TrailingZeros32(m)].fregs
			f[d] = math.Log(f[a])
		}
	case ir.OpFSin:
		for m := mask; m != 0; m &= m - 1 {
			f := lanes[bits.TrailingZeros32(m)].fregs
			f[d] = math.Sin(f[a])
		}
	case ir.OpFCos:
		for m := mask; m != 0; m &= m - 1 {
			f := lanes[bits.TrailingZeros32(m)].fregs
			f[d] = math.Cos(f[a])
		}
	case ir.OpFMA:
		for m := mask; m != 0; m &= m - 1 {
			f := lanes[bits.TrailingZeros32(m)].fregs
			f[d] = f[a]*f[b] + f[c]
		}
	case ir.OpFSetEQ:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				ln := lanes[bits.TrailingZeros32(m)]
				ln.regs[d] = b2i(ln.fregs[a] == fimm)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				ln := lanes[bits.TrailingZeros32(m)]
				ln.regs[d] = b2i(ln.fregs[a] == ln.fregs[b])
			}
		}
	case ir.OpFSetNE:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				ln := lanes[bits.TrailingZeros32(m)]
				ln.regs[d] = b2i(ln.fregs[a] != fimm)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				ln := lanes[bits.TrailingZeros32(m)]
				ln.regs[d] = b2i(ln.fregs[a] != ln.fregs[b])
			}
		}
	case ir.OpFSetLT:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				ln := lanes[bits.TrailingZeros32(m)]
				ln.regs[d] = b2i(ln.fregs[a] < fimm)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				ln := lanes[bits.TrailingZeros32(m)]
				ln.regs[d] = b2i(ln.fregs[a] < ln.fregs[b])
			}
		}
	case ir.OpFSetLE:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				ln := lanes[bits.TrailingZeros32(m)]
				ln.regs[d] = b2i(ln.fregs[a] <= fimm)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				ln := lanes[bits.TrailingZeros32(m)]
				ln.regs[d] = b2i(ln.fregs[a] <= ln.fregs[b])
			}
		}
	case ir.OpFSetGT:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				ln := lanes[bits.TrailingZeros32(m)]
				ln.regs[d] = b2i(ln.fregs[a] > fimm)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				ln := lanes[bits.TrailingZeros32(m)]
				ln.regs[d] = b2i(ln.fregs[a] > ln.fregs[b])
			}
		}
	case ir.OpFSetGE:
		if in.BImm {
			for m := mask; m != 0; m &= m - 1 {
				ln := lanes[bits.TrailingZeros32(m)]
				ln.regs[d] = b2i(ln.fregs[a] >= fimm)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				ln := lanes[bits.TrailingZeros32(m)]
				ln.regs[d] = b2i(ln.fregs[a] >= ln.fregs[b])
			}
		}
	case ir.OpItoF:
		for m := mask; m != 0; m &= m - 1 {
			ln := lanes[bits.TrailingZeros32(m)]
			ln.fregs[d] = float64(ln.regs[a])
		}
	case ir.OpFtoI:
		for m := mask; m != 0; m &= m - 1 {
			ln := lanes[bits.TrailingZeros32(m)]
			ln.regs[d] = int64(ln.fregs[a])
		}

	case ir.OpTid:
		for m := mask; m != 0; m &= m - 1 {
			ln := lanes[bits.TrailingZeros32(m)]
			ln.regs[d] = int64(ln.id)
		}
	case ir.OpLane:
		for m := mask; m != 0; m &= m - 1 {
			ln := lanes[bits.TrailingZeros32(m)]
			ln.regs[d] = int64(ln.lane)
		}
	case ir.OpNumThreads:
		for m := mask; m != 0; m &= m - 1 {
			ln := lanes[bits.TrailingZeros32(m)]
			ln.regs[d] = int64(s.cfg.Threads)
		}
	case ir.OpCTAId:
		for m := mask; m != 0; m &= m - 1 {
			ln := lanes[bits.TrailingZeros32(m)]
			ln.regs[d] = int64(ln.cta)
		}
	case ir.OpCTATid:
		for m := mask; m != 0; m &= m - 1 {
			ln := lanes[bits.TrailingZeros32(m)]
			ln.regs[d] = int64(ln.ctatid)
		}
	case ir.OpCTASize:
		for m := mask; m != 0; m &= m - 1 {
			ln := lanes[bits.TrailingZeros32(m)]
			ln.regs[d] = int64(s.ctaSize)
		}
	case ir.OpRand:
		for m := mask; m != 0; m &= m - 1 {
			ln := lanes[bits.TrailingZeros32(m)]
			ln.regs[d] = ln.rng.Int63()
		}
	case ir.OpFRand:
		for m := mask; m != 0; m &= m - 1 {
			ln := lanes[bits.TrailingZeros32(m)]
			ln.fregs[d] = ln.rng.Float64()
		}

	case ir.OpLoad:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			ln := lanes[l]
			adr := ln.regs[a] + imm
			if adr < 0 || adr >= int64(s.memLen) {
				return l, s.globalOOB(adr)
			}
			ln.regs[d] = int64(s.loadWord(adr))
		}
	case ir.OpStore:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			ln := lanes[l]
			adr := ln.regs[a] + imm
			if adr < 0 || adr >= int64(s.memLen) {
				return l, s.globalOOB(adr)
			}
			s.storeWord(adr, uint64(ln.regs[b]))
		}
	case ir.OpFLoad:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			ln := lanes[l]
			adr := ln.regs[a] + imm
			if adr < 0 || adr >= int64(s.memLen) {
				return l, s.globalOOB(adr)
			}
			ln.fregs[d] = math.Float64frombits(s.loadWord(adr))
		}
	case ir.OpFStore:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			ln := lanes[l]
			adr := ln.regs[a] + imm
			if adr < 0 || adr >= int64(s.memLen) {
				return l, s.globalOOB(adr)
			}
			s.storeWord(adr, math.Float64bits(ln.fregs[b]))
		}
	case ir.OpAtomAdd:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			ln := lanes[l]
			adr := ln.regs[a] + imm
			if adr < 0 || adr >= int64(s.memLen) {
				return l, s.globalOOB(adr)
			}
			old := int64(s.loadWord(adr))
			s.storeWord(adr, uint64(old+ln.regs[b]))
			ln.regs[d] = old
		}
	case ir.OpFAtomAdd:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			ln := lanes[l]
			adr := ln.regs[a] + imm
			if adr < 0 || adr >= int64(s.memLen) {
				return l, s.globalOOB(adr)
			}
			old := math.Float64frombits(s.loadWord(adr))
			s.storeWord(adr, math.Float64bits(old+ln.fregs[b]))
			ln.fregs[d] = old
		}

	case ir.OpSharedLoad:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			ln := lanes[l]
			adr := ln.regs[a] + imm
			if adr < 0 || adr >= int64(len(shared)) {
				return l, sharedOOB(adr, len(shared))
			}
			ln.regs[d] = int64(shared[adr])
			s.metrics.SharedAccesses++
		}
	case ir.OpSharedStore:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			ln := lanes[l]
			adr := ln.regs[a] + imm
			if adr < 0 || adr >= int64(len(shared)) {
				return l, sharedOOB(adr, len(shared))
			}
			shared[adr] = uint64(ln.regs[b])
			s.metrics.SharedAccesses++
		}
	case ir.OpFSharedLoad:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			ln := lanes[l]
			adr := ln.regs[a] + imm
			if adr < 0 || adr >= int64(len(shared)) {
				return l, sharedOOB(adr, len(shared))
			}
			ln.fregs[d] = math.Float64frombits(shared[adr])
			s.metrics.SharedAccesses++
		}
	case ir.OpFSharedStore:
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			ln := lanes[l]
			adr := ln.regs[a] + imm
			if adr < 0 || adr >= int64(len(shared)) {
				return l, sharedOOB(adr, len(shared))
			}
			shared[adr] = math.Float64bits(ln.fregs[b])
			s.metrics.SharedAccesses++
		}

	case ir.OpArrived:
		v := int64(bits.OnesCount32(ws.waiting[in.Bar]))
		for m := mask; m != 0; m &= m - 1 {
			lanes[bits.TrailingZeros32(m)].regs[d] = v
		}
	case ir.OpNop:
		// nothing
	default:
		return bits.TrailingZeros32(mask), fmt.Errorf("unhandled opcode %s", in.Op)
	}
	return 0, nil
}
