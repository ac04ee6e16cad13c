package simt

import (
	"fmt"

	"specrecon/internal/ir"
)

// The rescanning scheduler slot the priority list and the live array
// replaced, kept as the oracle: every slot clears a tried bitmap and
// rescans every resident warp for the policy's best. SchedSlotMismatch
// runs it beside the production slot on twin machines.

// refSched is the reference scheduler's per-wave state.
type refSched struct {
	s     *sim
	tried []uint64
	// attempts counts the tryStep calls of the last slot.
	attempts int
}

func newRefSched(s *sim, warps []*warpState) *refSched {
	if s.cfg.Sched == SchedRandom {
		s.schedRng.Reseed(s.cfg.Seed^s.cfg.SchedSeed, 0x5eed0+uint64(s.smIndex))
	}
	for _, ws := range warps {
		ws.lastRunCycle = s.metrics.Cycles
		ws.lastIssueSlot = s.issues
	}
	return &refSched{s: s, tried: make([]uint64, (len(warps)+63)/64)}
}

func (r *refSched) clearTried() []uint64 {
	clear(r.tried)
	r.attempts = 0
	return r.tried
}

// try is tryStep plus the bookkeeping the production slot does on issue.
func (r *refSched) try(ws *warpState) (bool, error) {
	r.attempts++
	ok, err := ws.tryStep()
	if err != nil {
		return false, r.s.warpErr(ws, err)
	}
	if ok {
		r.s.noteIssue(ws)
	}
	return ok, nil
}

func (r *refSched) slot(warps []*warpState) (bool, error) {
	s := r.s
	tried := r.clearTried()
	switch s.cfg.Sched {
	case SchedLooseFair:
		for _, ws := range warps {
			if ok, err := r.try(ws); ok || err != nil {
				return ok, err
			}
		}
		return false, nil
	case SchedRandom:
		remaining := 0
		for i, ws := range warps {
			if ws.done {
				tried[i>>6] |= 1 << (uint(i) & 63)
			} else {
				remaining++
			}
		}
		for remaining > 0 {
			k := s.schedRng.Intn(remaining)
			pick := -1
			for i := range warps {
				if tried[i>>6]&(1<<(uint(i)&63)) != 0 {
					continue
				}
				if k == 0 {
					pick = i
					break
				}
				k--
			}
			if ok, err := r.try(warps[pick]); ok || err != nil {
				return ok, err
			}
			tried[pick>>6] |= 1 << (uint(pick) & 63)
			remaining--
		}
		return false, nil
	default: // SchedOldestFirst, SchedYoungestFirst
		for {
			best := -1
			for i, ws := range warps {
				if ws.done || tried[i>>6]&(1<<(uint(i)&63)) != 0 {
					continue
				}
				if best < 0 {
					best = i
					continue
				}
				if s.cfg.Sched == SchedOldestFirst {
					if ws.lastIssueSlot < warps[best].lastIssueSlot {
						best = i
					}
				} else if ws.lastIssueSlot > warps[best].lastIssueSlot {
					best = i
				}
			}
			if best < 0 {
				return false, nil
			}
			if ok, err := r.try(warps[best]); ok || err != nil {
				return ok, err
			}
			tried[best>>6] |= 1 << (uint(best) & 63)
		}
	}
}

// SchedLockstep is what SchedSlotMismatch saw: the slots compared, how
// many of them issued only after the policy's first pick could not, and
// how many issued while a warp of the same wave had already retired.
type SchedLockstep struct {
	Slots, FirstPickBlocked, AfterRetire int64
}

// SchedSlotMismatch runs the launch (m, cfg) twice, slot by slot: on one
// machine through the production wave loop (passes(warps, 1)), on its
// twin through the reference scan. After every slot the warp that issued
// (reported by the afterIssue seam under ITS, read off lastIssueSlot
// under either model) and every resident warp's lastIssueSlot and done
// flag must agree, as must the error that ends a wave.
func SchedSlotMismatch(m *ir.Module, cfg Config) (SchedLockstep, error) {
	var st SchedLockstep
	a, err := newSim(m, cfg)
	if err != nil {
		return st, err
	}
	b, err := newSim(m, cfg)
	if err != nil {
		return st, err
	}
	if !a.gridMode {
		for w := 0; w*ir.WarpWidth < a.cfg.Threads; w++ {
			a.newCTAWarp(a.ctas[0], w)
			b.newCTAWarp(b.ctas[0], w)
		}
		return st, st.wave(a, a.ctas[0].warps, b, b.ctas[0].warps)
	}
	warpsPerCTA := (a.cfg.CTASize + ir.WarpWidth - 1) / ir.WarpWidth
	occ := a.occupancy(warpsPerCTA)
	for i := 0; i < a.cfg.SMs; i++ {
		sa, sb := a.forkSM(i, nil, nil), b.forkSM(i, nil, nil)
		for c := i; c < a.cfg.Grid; c += occ * a.cfg.SMs {
			var wa, wb []*warpState
			for k := 0; k < occ && c+k*a.cfg.SMs < a.cfg.Grid; k++ {
				ca, cb := sa.newCTA(c+k*a.cfg.SMs, sa.ctaSize), sb.newCTA(c+k*a.cfg.SMs, sb.ctaSize)
				for wi := 0; wi < warpsPerCTA; wi++ {
					wa = append(wa, sa.newCTAWarp(ca, wi))
					wb = append(wb, sb.newCTAWarp(cb, wi))
				}
			}
			if err := st.wave(sa, wa, sb, wb); err != nil {
				return st, fmt.Errorf("sm %d: %w", i, err)
			}
		}
	}
	return st, nil
}

// wave steps one resident wave on both machines until a slot issues
// nothing or fails.
func (st *SchedLockstep) wave(a *sim, wa []*warpState, b *sim, wb []*warpState) error {
	seam := -1
	a.afterIssue = func(ws *warpState) {
		for i := range wa {
			if wa[i] == ws {
				seam = i
			}
		}
	}
	a.schedInit(wa)
	ref := newRefSched(b, wb)
	for {
		seam = -1
		n, errA := a.passes(wa, 1)
		okB, errB := ref.slot(wb)
		st.Slots++
		if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
			return fmt.Errorf("slot %d: list scheduler ended with %v, scan with %v", st.Slots, errA, errB)
		}
		if errA != nil {
			return nil
		}
		if (n > 0) != okB {
			return fmt.Errorf("slot %d: list scheduler issued=%v, scan issued=%v", st.Slots, n > 0, okB)
		}
		issuedA, issuedB, retired := -1, -1, false
		for i := range wa {
			if wa[i].lastIssueSlot != wb[i].lastIssueSlot || wa[i].done != wb[i].done {
				return fmt.Errorf("slot %d: warp %d has lastIssueSlot %d done=%v, scan has %d done=%v",
					st.Slots, i, wa[i].lastIssueSlot, wa[i].done, wb[i].lastIssueSlot, wb[i].done)
			}
			if okB && wa[i].lastIssueSlot == a.issues {
				issuedA = i
			}
			if okB && wb[i].lastIssueSlot == b.issues {
				issuedB = i
			}
			retired = retired || wb[i].done
		}
		if issuedA != issuedB || (a.cfg.Model == ModelITS && seam != issuedB) {
			return fmt.Errorf("slot %d: list scheduler issued warp %d (seam: %d), scan warp %d", st.Slots, issuedA, seam, issuedB)
		}
		if !okB {
			return nil
		}
		if ref.attempts > 1 {
			st.FirstPickBlocked++
		}
		if retired {
			st.AfterRetire++
		}
	}
}
