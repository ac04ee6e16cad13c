package simt

import (
	"fmt"
	"math/bits"
	"sync"

	"specrecon/internal/ir"
)

// Seams for external tests (package simt_test). The steady-state
// allocation guard lives outside the package so it can attach an
// internal/obs sink — obs imports simt, so an in-package test cannot
// import it back.

// AllocTestKernel is a long-running divergent kernel touching every
// hot-path shape the issue loop has: PC-grouping under divergence,
// memory coalescing, calls, and convergence barriers.
const AllocTestKernel = `module t memwords=4096
func @k nregs=8 nfregs=1 {
entry:
  tid r0
  const r1, #0
  br header
header:
  setlt r2, r1, #1000000
  cbr r2, body, done
body:
  join b0
  and r3, r0, #3
  cbr r3, left, right
left:
  ld r4, [r0+0]
  call @leaf
  br merge
right:
  st [r0], r1
  br merge
merge:
  wait b0
  add r1, r1, #1
  br header
done:
  exit
}
func @leaf nregs=8 nfregs=1 {
e:
  add r5, r0, #1
  ret
}
`

// RandomControlFlowKernel (entry @k) mixes a loop, a per-lane random
// branch and a call into a callee that diverges again — the control flow
// on which the two divergence models are compared.
const RandomControlFlowKernel = `module t memwords=256
func @mix nregs=8 nfregs=4 {
x:
  fadd f1, f0, #1.0
  fsetlt r6, f1, #20.0
  cbr r6, small, big
small:
  fmul f0, f1, #1.5
  br xo
big:
  fmul f0, f1, #0.25
  br xo
xo:
  ret
}
func @k nregs=8 nfregs=4 {
e:
  tid r0
  const r1, #0
  fconst f0, #0.0
  br hdr
hdr:
  setlt r2, r1, #24
  cbr r2, body, done
body:
  frand f2
  fsetlt r3, f2, #0.4
  cbr r3, callpath, skip
callpath:
  call @mix
  br skip
skip:
  add r1, r1, #1
  br hdr
done:
  fst [r0], f0
  exit
}
`

// HandSim steps a single warp one issue slot at a time, so tests can
// measure per-step behavior directly: Step is one pass of the production
// wave loop over the one-warp wave a flat run-to-completion launch makes
// of warp 0.
type HandSim struct {
	s *sim
}

// NewHandSim builds a simulator over m and wires up warp 0.
func NewHandSim(m *ir.Module, cfg Config) (*HandSim, error) {
	s, err := newSim(m, cfg)
	if err != nil {
		return nil, err
	}
	s.newCTAWarp(s.ctas[0], 0)
	return &HandSim{s: s}, nil
}

// Step issues one slot on warp 0; done reports that nothing issued (the
// warp completed, or is stalled).
func (h *HandSim) Step() (done bool, err error) {
	issued, err := h.s.passes(h.s.ctas[0].warps, 1)
	return issued == 0, err
}

// AllocTestKernelGrid is the grid-launch variant of AllocTestKernel: the
// same divergent loop with a shared-memory store/load pair and a ctabar
// workgroup barrier in the hot path, so the allocation guard covers the
// CTA-hierarchy issue shapes too.
const AllocTestKernelGrid = `module tg memwords=4096 sharedwords=64
func @k nregs=8 nfregs=1 {
entry:
  ctatid r0
  tid r6
  const r1, #0
  br header
header:
  setlt r2, r1, #1000000
  cbr r2, body, done
body:
  sts [r0], r1
  ctabar b0
  join b0
  and r3, r0, #3
  cbr r3, left, right
left:
  lds r4, [r0+0]
  call @leaf
  br merge
right:
  st [r6], r1
  br merge
merge:
  wait b0
  add r1, r1, #1
  br header
done:
  exit
}
func @leaf nregs=8 nfregs=1 {
e:
  add r5, r0, #1
  ret
}
`

// HandSimGPU steps one wave by hand: Step is one pass of the production
// wave loop (a greedy round-robin sweep, or one policy slot with its
// periodic starvation scan, then the sampler hook) without the loop's
// retire and deadlock handling.
type HandSimGPU struct {
	sm    *sim
	warps []*warpState
}

// newHandWave makes warps resident on sm the way runWave does.
func newHandWave(sm *sim, warps []*warpState) *HandSimGPU {
	if sm.cfg.Sched != SchedGreedyConverge {
		sm.schedInit(warps)
	}
	return &HandSimGPU{sm: sm, warps: warps}
}

// NewHandSimGPU builds a grid simulator over m and makes SM 0's first
// CTA wave resident. cfg must be a grid config (Grid > 0).
func NewHandSimGPU(m *ir.Module, cfg Config) (*HandSimGPU, error) {
	s, err := newSim(m, cfg)
	if err != nil {
		return nil, err
	}
	if !s.gridMode {
		return nil, fmt.Errorf("NewHandSimGPU requires a grid config (Grid > 0)")
	}
	warpsPerCTA := (s.cfg.CTASize + ir.WarpWidth - 1) / ir.WarpWidth
	// The sinks a serial runGrid gives SM 0: Events/Samples in place.
	sink, samples := s.smSinks(0, nil)
	sm := s.forkSM(0, sink, samples)
	occ := sm.occupancy(warpsPerCTA)
	var warps []*warpState
	for c := 0; c < s.cfg.Grid && len(warps)/warpsPerCTA < occ; c += s.cfg.SMs {
		cta := sm.newCTA(c, sm.ctaSize)
		sm.ctas = append(sm.ctas, cta)
		for wi := 0; wi < warpsPerCTA; wi++ {
			warps = append(warps, sm.newCTAWarp(cta, wi))
		}
	}
	return newHandWave(sm, warps), nil
}

// NewHandSimFlat builds the flat-launch counterpart of NewHandSimGPU:
// every warp of the launch forms one resident wave stepped by Step, as
// under InterleaveWarps or a non-greedy Config.Sched. cfg must be flat
// (Grid == 0).
func NewHandSimFlat(m *ir.Module, cfg Config) (*HandSimGPU, error) {
	s, err := newSim(m, cfg)
	if err != nil {
		return nil, err
	}
	if s.gridMode {
		return nil, fmt.Errorf("NewHandSimFlat requires a flat config (Grid == 0)")
	}
	_, s.sampleSink = s.smSinks(0, nil)
	cta := s.ctas[0]
	for w := 0; w*ir.WarpWidth < s.cfg.Threads; w++ {
		s.newCTAWarp(cta, w)
	}
	return newHandWave(s, cta.warps), nil
}

// Step runs one pass over the resident warps; progress=false means the
// wave retired (or stalled).
func (h *HandSimGPU) Step() (progress bool, err error) {
	issued, err := h.sm.passes(h.warps, 1)
	return issued > 0, err
}

// LaneScanSample classifies the resident warps the way the sampler did
// before it trusted a current group table: by walking every lane status
// of every warp. Only the four warp counts are filled in.
func (h *HandSimGPU) LaneScanSample() Sample {
	var smp Sample
	for _, ws := range h.warps {
		if ws.done {
			continue
		}
		var running, ctabar, barrier bool
		for _, st := range ws.status {
			switch st {
			case laneRunning:
				running = true
			case laneCTAWaiting:
				ctabar = true
			case laneWaiting, laneSyncing:
				barrier = true
			}
		}
		if !running && !ctabar && !barrier {
			continue
		}
		smp.Resident++
		switch {
		case running:
			smp.Eligible++
		case ctabar:
			smp.StallCTABar++
		default:
			smp.StallBarrier++
		}
	}
	return smp
}

// TableCheck is the group-table invariant checker, installed as the
// sim's afterIssue seam. A running lane's PC lives only in its table
// entry, so there is no live per-lane PC to rescan; the check has two
// independent halves, both run after every issue over every warp of the
// issuing warp's CTA (ctabar releases reach other warps):
//
//   - the table equals a scan of a spilled copy: copy pcs, write each
//     entry's PC over the lanes of its mask, scanGroups the copy. That
//     catches a missed merge, an unsorted insert, overlapping masks, a
//     non-running lane left in a mask and a running lane in none;
//   - every lane's PC — its table entry's for a running lane, pcs[l]
//     otherwise — equals an eager per-lane shadow (pcShadow) that is
//     driven by the event stream alone and knows nothing of the table.
//
// Grid launches call it from every SM goroutine, hence the lock. The
// shadow consumes events inside the issue loop, so it exists only where
// they are delivered there: a Workers > 1 launch, whose events arrive
// after every SM has retired, is held to the first half alone.
type TableCheck struct {
	mu sync.Mutex
	// Checked counts tables compared against a scan; Stale counts tables
	// skipped because they were marked for rebuild (nothing to compare:
	// the rebuild is the scan). Lanes counts lane PCs compared with the
	// shadow.
	Checked, Stale, Lanes int64
	// Err is the first mismatch found.
	Err error

	shadows []*pcShadow
}

// Attach returns cfg with the check's PC shadows, one per SM and reset
// for a new launch of m, installed as the launch's event sink when the
// launch delivers events in place (Workers <= 1): the sink hands each
// event to the shadow of the SM it names.
func (tc *TableCheck) Attach(m *ir.Module, cfg Config) Config {
	tc.shadows = tc.shadows[:0]
	if cfg.Workers > 1 {
		return cfg
	}
	for sm := 0; sm < max(cfg.SMs, 1); sm++ {
		tc.shadows = append(tc.shadows, newPCShadow(m, cfg.Kernel))
	}
	cfg.Events = SinkFunc(func(ev Event) { tc.shadows[ev.SM].Event(&ev) })
	return cfg
}

func (tc *TableCheck) afterIssue(ws *warpState) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	fail := func(err error) {
		if err != nil && tc.Err == nil {
			tc.Err = fmt.Errorf("after issue %d of warp %d: %w", ws.sim.issues, ws.index, err)
		}
	}
	var shadow *pcShadow
	if sm := int(ws.sim.smIndex); sm < len(tc.shadows) {
		shadow = tc.shadows[sm]
		fail(shadow.err)
	}
	for _, w := range ws.cta.warps {
		if shadow != nil {
			n, err := w.shadowMismatch(shadow.warp(int32(w.index)))
			tc.Lanes += int64(n)
			fail(err)
		}
		if w.stale {
			tc.Stale++
			continue
		}
		tc.Checked++
		fail(w.tableMismatch())
	}
}

// spilledPCs returns a copy of pcs with every table entry's PC written
// over the lanes of its mask, and the union of the masks.
func (ws *warpState) spilledPCs() (pcs [ir.WarpWidth]uint32, covered uint32) {
	pcs = ws.pcs
	for _, g := range ws.groupBuf[:ws.ngroups] {
		covered |= g.mask
		for m := g.mask; m != 0; m &= m - 1 {
			pcs[bits.TrailingZeros32(m)&laneMask] = g.pc
		}
	}
	return pcs, covered
}

// tableMismatch reports how the warp's resident group table differs
// from a scan of its lanes with the table's PCs spilled over a copy of
// pcs (entries, order, masks, anyLive).
func (ws *warpState) tableMismatch() error {
	pcs, _ := ws.spilledPCs()
	var want [ir.WarpWidth]group
	n, live := scanGroups(&ws.status, &pcs, &want)
	if n != ws.ngroups || live != ws.anyLive {
		return fmt.Errorf("warp %d: table has %d groups (anyLive=%v), scan has %d (anyLive=%v)",
			ws.index, ws.ngroups, ws.anyLive, n, live)
	}
	for i := 0; i < n; i++ {
		if got := ws.groupBuf[i]; got != want[i] {
			return fmt.Errorf("warp %d: table entry %d is pc %d/%08x, scan has pc %d/%08x",
				ws.index, i, got.pc, got.mask, want[i].pc, want[i].mask)
		}
	}
	return nil
}

// shadowMismatch compares every lane's lazily kept PC and status with
// the eager shadow, returning the number of lane PCs compared.
func (ws *warpState) shadowMismatch(sw *shadowWarp) (int, error) {
	sw.syncCheck()
	pcs, covered := ws.pcs, ^uint32(0)
	if !ws.stale {
		pcs, covered = ws.spilledPCs()
	}
	n := 0
	for l, st := range ws.status {
		var want shadowState
		switch st {
		case laneDone:
			if sw.state[l] != shadowDone && sw.state[l] != shadowUnborn {
				return n, fmt.Errorf("warp %d lane %d: exited, shadow is %v at pc %d", ws.index, l, sw.state[l], sw.pc[l])
			}
			continue
		case laneRunning:
			want = shadowRunning
			if covered&(1<<l) == 0 {
				return n, fmt.Errorf("warp %d lane %d: running but in no table entry", ws.index, l)
			}
		case laneSyncing:
			want = shadowSyncing
		default:
			want = shadowBlocked
		}
		got := sw.state[l]
		if got == shadowUnborn {
			got = shadowRunning // not issued yet: running at the entry
		}
		if got != want || sw.pc[l] != int32(pcs[l]) {
			return n, fmt.Errorf("warp %d lane %d: %v at pc %d, shadow is %v at pc %d", ws.index, l, want, pcs[l], got, sw.pc[l])
		}
		n++
	}
	return n, nil
}

// pcShadow is an eager per-lane PC model of one SM's warps, driven only
// by the event stream: it decodes the module itself (BuildPCTable and
// the block successors), never reads engine state, and steps every lane
// named by an event the way the ISA says the instruction moves it.
type pcShadow struct {
	mod   *ir.Module
	refs  []PCRef
	start [][]int32 // [fn][blk] -> PC of the block's first instruction
	entry int32
	warps map[int32]*shadowWarp
	err   error // first inconsistency in the stream itself
}

type shadowState uint8

const (
	shadowUnborn  shadowState = iota // never issued: at the entry, or a padding lane
	shadowRunning                    //
	shadowBlocked                    // at a wait, waitn or ctabar
	shadowSyncing                    // at a warpsync
	shadowDone
)

func (s shadowState) String() string {
	return [...]string{"unborn", "running", "blocked", "syncing", "done"}[s]
}

type shadowWarp struct {
	pc    [ir.WarpWidth]int32
	state [ir.WarpWidth]shadowState
	rets  [ir.WarpWidth][]int32
}

func newPCShadow(m *ir.Module, kernel string) *pcShadow {
	sh := &pcShadow{mod: m, refs: BuildPCTable(m), start: make([][]int32, len(m.Funcs)), warps: map[int32]*shadowWarp{}}
	for fi, f := range m.Funcs {
		sh.start[fi] = make([]int32, len(f.Blocks))
	}
	for pc, ref := range sh.refs {
		if ref.Ins == 0 {
			sh.start[ref.Fn][ref.Blk] = int32(pc)
		}
	}
	for fi, f := range m.Funcs {
		if f.Name == kernel || (kernel == "" && fi == 0) {
			sh.entry = sh.start[fi][0]
		}
	}
	return sh
}

func (sh *pcShadow) warp(index int32) *shadowWarp {
	w := sh.warps[index]
	if w == nil {
		w = &shadowWarp{}
		for l := range w.pc {
			w.pc[l] = sh.entry
		}
		sh.warps[index] = w
	}
	return w
}

// syncCheck releases a warpsync once every live lane is blocked on it —
// the one release the event stream does not announce.
func (w *shadowWarp) syncCheck() {
	live, syncing := 0, 0
	for _, st := range w.state {
		if st != shadowDone && st != shadowUnborn {
			live++
		}
		if st == shadowSyncing {
			syncing++
		}
	}
	if syncing == 0 || syncing != live {
		return
	}
	for l, st := range w.state {
		if st == shadowSyncing {
			w.state[l] = shadowRunning
			w.pc[l]++
		}
	}
}

func (sh *pcShadow) Event(ev *Event) {
	w := sh.warp(ev.Warp)
	fail := func(format string, args ...any) {
		if sh.err == nil {
			sh.err = fmt.Errorf("event stream, issue %d warp %d: %s", ev.Issue, ev.Warp, fmt.Sprintf(format, args...))
		}
	}
	var blk *ir.Block // of the instruction the event is located at
	if ev.PC >= 0 {
		ref := sh.refs[ev.PC]
		if ref != (PCRef{Fn: ev.Fn, Blk: ev.Blk, Ins: ev.Ins}) {
			fail("event pc %d is %d.%d#%d, BuildPCTable says %v", ev.PC, ev.Fn, ev.Blk, ev.Ins, ref)
		}
		blk = sh.mod.Funcs[ref.Fn].Blocks[ref.Blk]
	}
	for m := ev.Mask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		switch ev.Kind {
		case EvIssue:
			// The group was issued from ev.PC, so every lane of it must
			// have been there, and runnable.
			if (w.state[l] != shadowRunning && w.state[l] != shadowUnborn) || w.pc[l] != ev.PC {
				fail("lane %d issued at pc %d but the shadow has it %v at pc %d", l, ev.PC, w.state[l], w.pc[l])
			}
			w.state[l] = shadowRunning
			switch blk.Instrs[ev.Ins].Op {
			case ir.OpBr:
				w.pc[l] = sh.start[ev.Fn][blk.Succs[0].Index]
			case ir.OpCBr, ir.OpCall, ir.OpRet:
				// Resolved by the EvBranch / EvCall / EvRet that follows.
			case ir.OpExit:
				w.state[l] = shadowDone
			case ir.OpCTABar:
				w.state[l] = shadowBlocked
			case ir.OpWarpSync:
				w.state[l] = shadowSyncing
			default:
				// Falls through to the next instruction; an EvBarrierWait
				// pulls the lanes a wait blocked back.
				w.pc[l] = ev.PC + 1
			}
		case EvBranch:
			if ev.Aux&(1<<l) != 0 {
				w.pc[l] = sh.start[ev.Fn][blk.Succs[0].Index]
			} else {
				w.pc[l] = sh.start[ev.Fn][blk.Succs[1].Index]
			}
		case EvCall:
			w.rets[l] = append(w.rets[l], ev.PC+1)
			w.pc[l] = sh.start[ev.Aux][0]
		case EvRet:
			if n := len(w.rets[l]); n > 0 {
				w.pc[l], w.rets[l] = w.rets[l][n-1], w.rets[l][:n-1]
			} else {
				w.state[l] = shadowDone
			}
		case EvBarrierWait:
			w.pc[l], w.state[l] = ev.PC, shadowBlocked
		case EvBarrierRelease, EvCTABarRelease:
			if w.state[l] != shadowBlocked {
				fail("lane %d released while %v", l, w.state[l])
			}
			w.pc[l]++
			w.state[l] = shadowRunning
		}
	}
}

// RunTableChecked is Run with the group-table invariant checked after
// every issue.
func RunTableChecked(m *ir.Module, cfg Config) (*Result, *TableCheck, error) {
	tc := &TableCheck{}
	s, err := newSim(m, tc.Attach(m, cfg))
	if err != nil {
		return nil, nil, err
	}
	s.afterIssue = tc.afterIssue
	res, err := s.launch()
	return res, tc, err
}

// NewTableCheckedMachine is NewMachine with the group-table invariant
// checked after every issue of every launch; pass each launch's Config
// through the check's Attach.
func NewTableCheckedMachine(m *ir.Module, cfg Config) (*Machine, *TableCheck, error) {
	mc, err := NewMachine(m, cfg)
	if err != nil {
		return nil, nil, err
	}
	tc := &TableCheck{}
	mc.s.afterIssue = tc.afterIssue
	return mc, tc, nil
}

// DecodeMismatch reports how the decode table of m departs from
// BuildPCTable: entry pc must locate the instruction BuildPCTable(m)[pc]
// names, and every br/cbr/call successor must be the PC of the first
// instruction of the successor block or the callee's entry block.
func DecodeMismatch(m *ir.Module) error {
	d := buildDecode(m)
	refs := BuildPCTable(m)
	if len(d.meta) != len(refs) {
		return fmt.Errorf("decode table has %d entries, BuildPCTable %d", len(d.meta), len(refs))
	}
	pcOf := make(map[PCRef]uint32, len(refs))
	for pc, ref := range refs {
		pcOf[ref] = uint32(pc)
	}
	for pc := range d.meta {
		im, ref := &d.meta[pc], refs[pc]
		if (PCRef{Fn: im.fn, Blk: im.blk, Ins: im.ins}) != ref {
			return fmt.Errorf("pc %d decodes %d.%d#%d, BuildPCTable says %v", pc, im.fn, im.blk, im.ins, ref)
		}
		blk := m.Funcs[ref.Fn].Blocks[ref.Blk]
		if im.in != &blk.Instrs[ref.Ins] {
			return fmt.Errorf("pc %d (%v) decodes another instruction's operands", pc, ref)
		}
		want0, want1 := noPC, noPC
		switch im.in.Op {
		case ir.OpBr:
			want0 = pcOf[PCRef{Fn: ref.Fn, Blk: int32(blk.Succs[0].Index)}]
		case ir.OpCBr:
			want0 = pcOf[PCRef{Fn: ref.Fn, Blk: int32(blk.Succs[0].Index)}]
			want1 = pcOf[PCRef{Fn: ref.Fn, Blk: int32(blk.Succs[1].Index)}]
		case ir.OpCall:
			for fi, callee := range m.Funcs {
				if callee.Name == im.in.Callee {
					want0 = pcOf[PCRef{Fn: int32(fi)}]
				}
			}
		}
		if im.succ0 != want0 || im.succ1 != want1 {
			return fmt.Errorf("pc %d (%v, %s): successors %d/%d, want %d/%d", pc, ref, im.in.Op, im.succ0, im.succ1, want0, want1)
		}
	}
	return nil
}

// IssuePCMismatch steps warp 0 of a flat launch by hand and checks that
// every EvIssue carries the PC and mask of the group-table entry it was
// issued from and the location BuildPCTable gives that PC. cfg must use a
// picker without state (not PolicyRoundRobin), so the entry step will
// pick can be read beforehand. It returns the number of issues checked.
func IssuePCMismatch(m *ir.Module, cfg Config) (int64, error) {
	refs := BuildPCTable(m)
	var last Event
	cfg.Events = SinkFunc(func(ev Event) {
		if ev.Kind == EvIssue {
			last = ev
		}
	})
	s, err := newSim(m, cfg)
	if err != nil {
		return 0, err
	}
	ws := s.newCTAWarp(s.ctas[0], 0)
	for {
		var from group
		if groups, _ := ws.groups(); len(groups) > 0 {
			from = groups[ws.pick(groups)]
		}
		issued, err := ws.tryStep()
		if !issued {
			return s.issues, err
		}
		if last.PC != int32(from.pc) || last.Mask != from.mask {
			return s.issues, fmt.Errorf("issue %d: EvIssue pc %d mask %08x, issued from group pc %d mask %08x",
				s.issues, last.PC, last.Mask, from.pc, from.mask)
		}
		if ref := refs[last.PC]; ref != (PCRef{Fn: last.Fn, Blk: last.Blk, Ins: last.Ins}) {
			return s.issues, fmt.Errorf("issue %d: EvIssue pc %d is %d.%d#%d, BuildPCTable says %v",
				s.issues, last.PC, last.Fn, last.Blk, last.Ins, ref)
		}
	}
}

// ReplayBuffer is the per-SM replay record of a Workers > 1 launch, for
// TestSinksDoNotRetainEvent.
type ReplayBuffer = smReplay

// Replay delivers the held event stream to sink, as runGrid does once
// every SM has retired.
func (r *smReplay) Replay(sink EventSink) { r.events.Each(sink.Event) }
