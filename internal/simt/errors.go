package simt

import (
	"fmt"
	"strings"
	"time"
)

// Typed runtime errors. The simulator's two interesting failure modes —
// a warp whose lanes can never proceed, and a run that exceeds its
// budget — used to surface as formatted strings; the robustness layer
// (internal/diffcheck, core.CompileSafe, the harness's fail-safe path)
// needs to classify them programmatically, so both are structured values
// supporting errors.As through the "simt: warp N:" wrapping Run applies.

// BarrierSnapshot records one barrier register's state at the moment a
// deadlock was detected.
type BarrierSnapshot struct {
	Bar     int    // barrier register index
	Mask    uint32 // participation mask
	Waiting uint32 // lanes blocked at a wait on this barrier
}

// BlockedLane records one lane that cannot proceed: its PC and, for
// lanes blocked at a barrier wait, the barrier register it waits on
// (Bar is -1 for lanes blocked at warpsync). CTABar marks a lane
// blocked at a ctabar workgroup barrier; Bar then names the workgroup
// barrier rather than a convergence-barrier register.
type BlockedLane struct {
	Lane   int
	Fn     string
	Block  string
	Ins    int
	Bar    int
	CTABar bool
}

// DeadlockError reports that a warp has live lanes but none of them is
// runnable and no barrier can release: the §4.3 failure mode of
// speculative reconvergence without (correct) deconfliction.
type DeadlockError struct {
	Warp int
	// SM and CTA locate the stalled warp in the GPU hierarchy on a grid
	// launch; both are -1 on a flat launch (no hierarchy to name), which
	// keeps the rendered diagnostic identical to the pre-hierarchy one.
	SM  int
	CTA int
	// Barriers lists every barrier register with leftover participation
	// or waiters.
	Barriers []BarrierSnapshot
	// Lanes lists the blocked lanes with their per-lane PCs.
	Lanes []BlockedLane
	// Cycles is the modeled cycle count at detection;
	// CyclesSinceProgress is how long the SM has gone since its last
	// forward progress (a barrier or warpsync release, or a lane exit, by
	// any warp): nonzero whenever anything issued after it — this warp on
	// its way to the stall, or other warps before it on the same SM.
	Cycles              int64
	CyclesSinceProgress int64
}

func (e *DeadlockError) Error() string {
	var sb strings.Builder
	sb.WriteString("deadlock: no runnable lanes;")
	if e.SM >= 0 {
		fmt.Fprintf(&sb, " sm%d cta%d;", e.SM, e.CTA)
	}
	for _, b := range e.Barriers {
		fmt.Fprintf(&sb, " b%d{mask=%08x waiting=%08x}", b.Bar, b.Mask, b.Waiting)
	}
	for _, l := range e.Lanes {
		switch {
		case l.CTABar:
			fmt.Fprintf(&sb, " lane%d@%s.%s#%d(ctabar b%d)", l.Lane, l.Fn, l.Block, l.Ins, l.Bar)
		case l.Bar >= 0:
			fmt.Fprintf(&sb, " lane%d@%s.%s#%d(wait b%d)", l.Lane, l.Fn, l.Block, l.Ins, l.Bar)
		default:
			fmt.Fprintf(&sb, " lane%d(warpsync)", l.Lane)
		}
	}
	if e.CyclesSinceProgress > 0 {
		fmt.Fprintf(&sb, " stuck for %d cycles", e.CyclesSinceProgress)
	}
	return sb.String()
}

// BlockedMask returns the union of the blocked lanes' bits.
func (e *DeadlockError) BlockedMask() uint32 {
	var m uint32
	for _, l := range e.Lanes {
		m |= 1 << l.Lane
	}
	return m
}

// BudgetError reports that a launch exhausted its issue budget before
// every lane exited — the simulator's livelock guard.
type BudgetError struct {
	Warp int
	// SM and CTA locate the warp that hit the budget on a grid launch
	// (budgets apply per SM there); both are -1 on a flat launch.
	SM  int
	CTA int
	// MaxIssues is the configured limit.
	MaxIssues int64
	// Issues/Cycles are the counters at exhaustion.
	Issues int64
	Cycles int64
	// LastProgressCycle is the modeled cycle of the most recent forward
	// progress (a barrier release, a warpsync release, or a lane exit).
	// A value far behind Cycles distinguishes a genuine livelock from a
	// long-but-advancing kernel that merely needs a bigger budget.
	LastProgressCycle int64
}

func (e *BudgetError) Error() string {
	where := ""
	if e.SM >= 0 {
		where = fmt.Sprintf("sm%d cta%d: ", e.SM, e.CTA)
	}
	return fmt.Sprintf("%sissue budget exhausted (%d); likely livelock (issues=%d cycles=%d last-progress-cycle=%d)",
		where, e.MaxIssues, e.Issues, e.Cycles, e.LastProgressCycle)
}

// StarvationError reports that the configured scheduling policy left a
// warp with runnable lanes unissued for longer than Config.StarveLimit
// modeled cycles — legal under loose progress models like OBE, but the
// schedule-exploration rig surfaces it as a liveness failure so kernels
// relying on inter-warp fairness are caught. Emitted only by
// policy-scheduled launches (Sched != SchedGreedyConverge; the greedy
// pass issues every runnable warp every pass and cannot starve one).
type StarvationError struct {
	Warp int
	// SM and CTA locate the starved warp on a grid launch; -1 on flat.
	SM  int
	CTA int
	// AgeCycles is how long the warp had runnable lanes without being
	// issued; Limit is the configured Config.StarveLimit it exceeded.
	AgeCycles int64
	Limit     int64
	// Cycles is the SM's modeled cycle count at detection.
	Cycles int64
	// Sched is the policy that starved the warp.
	Sched SchedPolicy
}

func (e *StarvationError) Error() string {
	where := ""
	if e.SM >= 0 {
		where = fmt.Sprintf("sm%d cta%d: ", e.SM, e.CTA)
	}
	return fmt.Sprintf("%sstarvation under %s scheduling: warp %d runnable but unissued for %d cycles (limit %d, cycle %d)",
		where, e.Sched, e.Warp, e.AgeCycles, e.Limit, e.Cycles)
}

// WatchdogError reports that a launch exceeded its wall-clock budget
// (Config.WallBudget) before every lane exited. It complements
// BudgetError, which bounds modeled work: the watchdog catches runs
// whose *real* time explodes — e.g. a pathological kernel × schedule in
// a sweep — independent of the cost model. On grid launches the budget
// applies per SM (each SM checks the same launch-wide deadline).
type WatchdogError struct {
	Warp int
	// SM and CTA locate the warp that observed expiry; -1 on flat.
	SM  int
	CTA int
	// Budget is the configured wall-clock allowance.
	Budget time.Duration
	// Issues/Cycles are the SM's counters at expiry.
	Issues int64
	Cycles int64
	// LastProgressCycle is the modeled cycle of the most recent forward
	// progress, mirroring BudgetError's livelock diagnostic.
	LastProgressCycle int64
}

func (e *WatchdogError) Error() string {
	where := ""
	if e.SM >= 0 {
		where = fmt.Sprintf("sm%d cta%d: ", e.SM, e.CTA)
	}
	return fmt.Sprintf("%swall-clock watchdog expired (budget %v); issues=%d cycles=%d last-progress-cycle=%d",
		where, e.Budget, e.Issues, e.Cycles, e.LastProgressCycle)
}
