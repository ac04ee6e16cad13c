package simt

import (
	"fmt"
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

// WithFullCopySM returns cfg with the copy-on-write SM fork disabled:
// every SM gets a full private copy of the initial memory image plus a
// whole-image dirty bitmap (the reference pre-CoW behavior). Tests pin
// the CoW merge byte-for-byte against it.
func WithFullCopySM(cfg Config) Config {
	cfg.fullCopySM = true
	return cfg
}

// HandSim steps a single warp one issue slot at a time, bypassing Run's
// driver loop, so tests can measure per-step behavior directly.
type HandSim struct {
	s  *sim
	ws *warpState
}

// NewHandSim builds a simulator over m and wires up warp 0.
func NewHandSim(m *ir.Module, cfg Config) (*HandSim, error) {
	s, err := newSim(m, cfg)
	if err != nil {
		return nil, err
	}
	return &HandSim{s: s, ws: s.newWarp(0)}, nil
}

// Step issues one slot on warp 0; done reports warp completion.
func (h *HandSim) Step() (done bool, err error) { return h.ws.step() }

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

// HandSimGPU steps one SM of a grid launch by hand: SM 0 is forked with
// its first occupancy wave of CTAs resident, and Step makes one
// round-robin issue pass over the resident warps — the same inner loop
// the SM driver runs, minus the wave scheduling. Under a non-greedy
// Config.Sched, Step instead runs one scheduling slot of the policy
// scheduler (sched.go), including its periodic starvation scan.
type HandSimGPU struct {
	sm    *sim
	warps []*warpState
	slot  int64
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
	var sink EventSink
	if s.cfg.SMEvents != nil {
		sink = s.cfg.SMEvents(0)
	} else {
		sink = s.cfg.Events
	}
	var samples SampleSink
	if s.cfg.samplerEnabled() {
		if s.cfg.SMSamples != nil {
			samples = s.cfg.SMSamples(0)
		} else {
			samples = s.cfg.Samples
		}
	}
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
	if sm.cfg.Sched != SchedGreedyConverge {
		sm.schedInit(warps)
	}
	return &HandSimGPU{sm: sm, warps: warps}, nil
}

// NewHandSimFlat builds the flat-launch counterpart of NewHandSimGPU:
// every warp of the launch forms one resident wave stepped by Step.
// With the default greedy policy a Step is one round-robin pass (the
// InterleaveWarps inner loop); under a non-greedy Config.Sched it is
// one scheduling slot. cfg must be flat (Grid == 0) and ITS.
func NewHandSimFlat(m *ir.Module, cfg Config) (*HandSimGPU, error) {
	s, err := newSim(m, cfg)
	if err != nil {
		return nil, err
	}
	if s.gridMode {
		return nil, fmt.Errorf("NewHandSimFlat requires a flat config (Grid == 0)")
	}
	if s.cfg.Model == ModelStack {
		return nil, fmt.Errorf("NewHandSimFlat requires the ITS engine")
	}
	if s.cfg.samplerEnabled() {
		if s.cfg.SMSamples != nil {
			s.sampleSink = s.cfg.SMSamples(0)
		} else {
			s.sampleSink = s.cfg.Samples
		}
	}
	nwarps := (s.cfg.Threads + ir.WarpWidth - 1) / ir.WarpWidth
	warps := make([]*warpState, nwarps)
	for w := range warps {
		warps[w] = s.newWarp(w)
	}
	if s.cfg.Sched != SchedGreedyConverge {
		s.schedInit(warps)
	}
	return &HandSimGPU{sm: s, warps: warps}, nil
}

// Step makes one round-robin issue pass over the resident warps,
// including the occupancy sampler's per-pass hook (the same inner loop
// runResident runs); progress=false means the wave retired (or
// stalled).
func (h *HandSimGPU) Step() (progress bool, err error) {
	if h.sm.cfg.Sched != SchedGreedyConverge {
		issued, err := h.sm.schedSlot(h.warps)
		if err != nil {
			return false, err
		}
		n := 0
		if issued {
			n = 1
		}
		h.sm.samplePass(h.warps, n)
		h.slot++
		if h.sm.cfg.StarveLimit > 0 && h.slot%starveCheckStride == 0 {
			if err := h.sm.starveCheck(h.warps); err != nil {
				return false, err
			}
		}
		return issued, nil
	}
	issued := 0
	for _, ws := range h.warps {
		ok, _, err := ws.tryStep()
		if err != nil {
			return false, err
		}
		if ok {
			issued++
		}
	}
	h.sm.samplePass(h.warps, issued)
	return issued > 0, nil
}

// TableCheck is the group-table invariant checker: installed as the
// sim's afterIssue seam, it compares every non-stale resident table of
// the issuing warp's CTA (ctabar releases reach other warps) against a
// fresh scan of the lanes after every issue. Grid launches call it from
// every SM goroutine, hence the lock.
type TableCheck struct {
	mu sync.Mutex
	// Checked counts tables compared against a scan; Stale counts tables
	// skipped because they were marked for rebuild (nothing to compare:
	// the rebuild is the scan).
	Checked, Stale int64
	// Err is the first mismatch found.
	Err error
}

func (tc *TableCheck) afterIssue(ws *warpState) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for _, w := range ws.cta.warps {
		if w.stale {
			tc.Stale++
			continue
		}
		tc.Checked++
		if err := w.tableMismatch(); err != nil && tc.Err == nil {
			tc.Err = fmt.Errorf("after issue %d of warp %d: %w", ws.sim.issues, ws.index, err)
		}
	}
}

// tableMismatch reports how the warp's resident group table differs
// from a fresh scan of its lanes (entries, order, masks, anyLive).
func (ws *warpState) tableMismatch() error {
	var want [ir.WarpWidth]group
	n, live := ws.scanGroups(&want)
	if n != ws.ngroups || live != ws.anyLive {
		return fmt.Errorf("warp %d: table has %d groups (anyLive=%v), scan has %d (anyLive=%v)",
			ws.index, ws.ngroups, ws.anyLive, n, live)
	}
	for i := 0; i < n; i++ {
		if got := ws.groupBuf[i]; got != want[i] {
			return fmt.Errorf("warp %d: table entry %d is %v/%08x, scan has %v/%08x",
				ws.index, i, got.pc.pc(), got.mask, want[i].pc.pc(), want[i].mask)
		}
	}
	return nil
}

// RunTableChecked is Run with the group-table invariant checked after
// every issue.
func RunTableChecked(m *ir.Module, cfg Config) (*Result, *TableCheck, error) {
	s, err := newSim(m, cfg)
	if err != nil {
		return nil, nil, err
	}
	tc := &TableCheck{}
	s.afterIssue = tc.afterIssue
	res, err := s.launch()
	return res, tc, err
}

// NewTableCheckedMachine is NewMachine with the group-table invariant
// checked after every issue of every launch.
func NewTableCheckedMachine(m *ir.Module, cfg Config) (*Machine, *TableCheck, error) {
	mc, err := NewMachine(m, cfg)
	if err != nil {
		return nil, nil, err
	}
	tc := &TableCheck{}
	mc.s.afterIssue = tc.afterIssue
	return mc, tc, nil
}
