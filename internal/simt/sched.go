package simt

import (
	"fmt"
	"slices"
	"time"
)

// Inter-warp scheduling policies and the progress-model stress layer.
//
// The paper's correctness argument (and the reference greedy-converge
// pass in gpu.go) assumes the scheduler eventually issues every
// runnable warp. Real GPUs promise much less: "Specifying and Testing
// GPU Workgroup Progress Models" (arXiv 2109.06132) shows kernels that
// pass under a fair scheduler and deadlock or starve under
// occupancy-bound execution (OBE), where a resident warp may run to a
// blocking point before any other warp is considered. SchedPolicy makes
// the warp-selection rule pluggable so the schedule-exploration rig
// (diffhunt -axis sched) can hunt schedule-dependent outcomes: every policy
// must produce the same final memory on race-free kernels, and kernels
// whose outcome varies by policy are exactly the ones relying on a
// progress guarantee the hardware does not give.
//
// Execution model. A pass of the wave loop (runWave in gpu.go) is one
// scheduling step of the resident warps. Under greedy-converge it is a
// round-robin sweep, one instruction per eligible warp; under any other
// policy it is one *slot*: the policy ranks the resident warps, and the
// first ranked warp able to issue gets the slot (schedSlot). The ranking
// is kept, not recomputed: a slot costs the warps it tries, not the warps
// resident (schedInit has the invariant). A pass in which no warp can
// issue means the wave either retired or deadlocked.
// The policy applies to whatever shares a wave — an SM's co-resident
// CTAs on a grid launch, every warp of a flat launch (a non-greedy
// policy makes a flat launch one shared wave, like InterleaveWarps) —
// and to either divergence model: it only ever asks a warp to tryStep.
//
// Liveness layer. Unfair policies can starve a runnable warp forever
// (legal under OBE, but worth surfacing): the starvation monitor
// (Config.StarveLimit) fails the launch with a typed StarvationError
// when a warp with runnable lanes has not issued for more than the
// limit in modeled cycles. The wall-clock watchdog (Config.WallBudget)
// bounds real time beside the modeled MaxIssues budget and fires a
// typed WatchdogError; it applies to every launch shape and
// policy.

// SchedPolicy selects how the wave loop picks the next warp to issue
// from, complementing Policy, which picks among one warp's PC groups.
type SchedPolicy int

const (
	// SchedGreedyConverge is the reference scheduler: a round-robin
	// pass issuing one instruction per eligible resident warp. Every
	// runnable warp issues every pass, so no warp can starve; this is
	// the fairest model and the default.
	SchedGreedyConverge SchedPolicy = iota
	// SchedOldestFirst issues the warp that has waited longest since
	// its last issue (ties to the lowest warp index) — a fair aging
	// scheduler, close to hardware LRR with age priority.
	SchedOldestFirst
	// SchedYoungestFirst issues the most recently issued warp that can
	// still issue — a sticky, greedy-then-oldest model like hardware
	// GTO. It runs one warp to a blocking point before switching, so
	// spin-wait producers can be starved.
	SchedYoungestFirst
	// SchedLooseFair models occupancy-bound execution (OBE): the
	// lowest-indexed warp able to issue always wins, so a warp only
	// runs when every lower-indexed warp is blocked or done. This is
	// the weakest progress model GPUs are specified to give and the
	// main starvation/deadlock hunter.
	SchedLooseFair
	// SchedRandom picks uniformly among the warps able to issue, seeded
	// by Config.SchedSeed (per-SM streams keep sharded runs
	// deterministic). Distinct seeds explore distinct interleavings.
	SchedRandom
)

// SchedPolicies returns every scheduler policy, reference first — the
// order campaign drivers iterate.
func SchedPolicies() []SchedPolicy {
	return []SchedPolicy{SchedGreedyConverge, SchedOldestFirst, SchedYoungestFirst, SchedLooseFair, SchedRandom}
}

func (p SchedPolicy) String() string {
	switch p {
	case SchedGreedyConverge:
		return "greedy"
	case SchedOldestFirst:
		return "oldest"
	case SchedYoungestFirst:
		return "youngest"
	case SchedLooseFair:
		return "obe"
	case SchedRandom:
		return "random"
	}
	return fmt.Sprintf("sched(%d)", int(p))
}

// ParseSchedPolicy parses a scheduler policy name as printed by String,
// accepting the long aliases the issue/roadmap use.
func ParseSchedPolicy(s string) (SchedPolicy, error) {
	switch s {
	case "greedy", "greedy-converge":
		return SchedGreedyConverge, nil
	case "oldest", "oldest-first":
		return SchedOldestFirst, nil
	case "youngest", "youngest-first":
		return SchedYoungestFirst, nil
	case "obe", "loose", "loose-fair":
		return SchedLooseFair, nil
	case "random":
		return SchedRandom, nil
	}
	return 0, fmt.Errorf("simt: unknown sched policy %q (greedy|oldest|youngest|obe|random)", s)
}

// ParsePolicy parses a group-pick policy name as printed by
// Policy.String.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "maxgroup":
		return PolicyMaxGroup, nil
	case "minpc":
		return PolicyMinPC, nil
	case "roundrobin", "rr":
		return PolicyRoundRobin, nil
	}
	return 0, fmt.Errorf("simt: unknown policy %q (maxgroup|minpc|roundrobin)", s)
}

// starveCheckStride is how many scheduling slots pass between starvation
// scans; the monitor's resolution is this many slots, its cost one
// ready() call per resident warp per scan.
const starveCheckStride = 64

// watchdogCheckMask amortizes the wall-clock watchdog: the deadline is
// consulted once per (mask+1) issues, so a fired budget is detected
// within ~1024 issues while the hot path pays only a mask test.
const watchdogCheckMask = 1<<10 - 1

// warpErr wraps a warp-level error with its launch-position prefix:
// "simt: sm S: warp W:" on grid launches, "simt: warp W:" on flat ones.
// errors.As sees through both.
func (s *sim) warpErr(ws *warpState, err error) error {
	if s.gridMode {
		return fmt.Errorf("simt: sm %d: warp %d: %w", s.smIndex, ws.index, err)
	}
	return fmt.Errorf("simt: warp %d: %w", ws.index, err)
}

// watchdogExpired reports whether the wall-clock budget has run out.
// tryStep consults it once per watchdogCheckMask+1 issues, so the hot
// path pays one mask test per issue whether or not a budget is set.
func (s *sim) watchdogExpired() bool {
	return !s.wallDeadline.IsZero() && time.Now().After(s.wallDeadline)
}

// noteIssue timestamps a warp's successful issue for the aging policies
// and the starvation monitor (s.issues was just incremented by the
// issue itself, so it is a strictly increasing per-SM slot number).
func (s *sim) noteIssue(ws *warpState) {
	ws.lastIssueSlot = s.issues
	ws.lastRunCycle = s.metrics.Cycles
}

// schedInit prepares a wave for policy scheduling: the SchedRandom pick
// stream reseeds per SM (sharded runs stay deterministic for any
// Workers count, and distinct SMs explore distinct interleavings), the
// policy's selection state is laid out in schedBuf (arena scratch sized
// to the wave, so the slots allocate nothing and a relaunch allocates
// nothing either), and every warp's aging/starvation clock and the
// wave's slot count start at residency.
//
// Oldest-first, youngest-first and OBE keep the wave on one intrusive
// priority list over wave positions: schedBuf holds next[0..n] then
// prev[0..n], position n being the sentinel, so next[n] is the head. The
// list order is the policy's priority order and is edited only when a
// warp issues (it moves to the tail under oldest-first, to the head
// under youngest-first, nowhere under OBE, whose priority is the warp
// index) and when a warp's tryStep leaves it done (it is unlinked).
// The aging policies' priority key is (lastIssueSlot, warp index). Built
// in warp-index order the list is sorted by it from the start — every
// warp carries the schedInit slot — and an issue stamps a slot number
// larger than any before it, so moving the issuer to the far end keeps
// it sorted: the only ties are among never-issued warps, which are never
// moved and so stay in ascending index order.
//
// SchedRandom keeps schedBuf[:schedLive], the ascending positions of the
// warps not yet done, and uses the n words after it as per-slot scratch.
func (s *sim) schedInit(warps []*warpState) {
	s.slot = 0
	n := len(warps)
	if cap(s.schedBuf) < 2*n+2 {
		s.schedBuf = make([]int32, 2*n+2)
	}
	s.schedBuf = s.schedBuf[:2*n+2]
	next, prev := s.schedBuf[:n+1], s.schedBuf[n+1:]
	if s.cfg.Sched == SchedRandom {
		s.schedRng.Reseed(s.cfg.Seed^s.cfg.SchedSeed, 0x5eed0+uint64(s.smIndex))
		s.schedLive = 0
	}
	tail := int32(n)
	for i, ws := range warps {
		ws.lastRunCycle = s.metrics.Cycles
		ws.lastIssueSlot = s.issues
		switch {
		case ws.done:
		case s.cfg.Sched == SchedRandom:
			s.schedBuf[s.schedLive] = int32(i)
			s.schedLive++
		default:
			next[tail], prev[i] = int32(i), tail
			tail = int32(i)
		}
	}
	// Close the list (under SchedRandom: an empty one, in the scratch words).
	next[tail], prev[n] = int32(n), tail
}

// schedSlot runs one scheduling slot: the first warp in the policy's
// priority order able to issue does. issued=false means no resident warp
// could issue this slot. tryStep doubles as the eligibility probe, and a
// warp is only ever marked done inside its own tryStep, so the selection
// state is kept exact by dropping a warp the moment its tryStep leaves it
// done.
func (s *sim) schedSlot(warps []*warpState) (bool, error) {
	n := len(warps)
	if s.cfg.Sched == SchedRandom {
		// A uniform pick among the warps not yet tried this slot, in
		// ascending index order. The first draw indexes the live array
		// directly; only a slot whose first pick could not issue copies
		// the array to scratch and deletes the tried positions from it.
		live := s.schedBuf[:s.schedLive]
		untried := live
		for len(untried) > 0 {
			k := s.schedRng.Intn(len(untried))
			pick := untried[k]
			ws := warps[pick]
			ok, err := ws.tryStep()
			if err != nil {
				return false, s.warpErr(ws, err)
			}
			if ok {
				s.noteIssue(ws)
				return true, nil
			}
			if &untried[0] == &live[0] {
				untried = s.schedBuf[n : n+len(live)]
				copy(untried, live)
			}
			untried = slices.Delete(untried, k, k+1)
			if ws.done {
				k = slices.Index(live, pick)
				live = slices.Delete(live, k, k+1)
				s.schedLive = len(live)
			}
		}
		return false, nil
	}
	next, prev := s.schedBuf[:n+1], s.schedBuf[n+1:]
	end := int32(n)
	for i := next[end]; i != end; {
		ws := warps[i]
		ok, err := ws.tryStep()
		if err != nil {
			return false, s.warpErr(ws, err)
		}
		after := next[i]
		if ok {
			s.noteIssue(ws)
			if s.cfg.Sched != SchedLooseFair {
				// Move to the priority the new timestamp gives it: last
				// under oldest-first, first under youngest-first.
				next[prev[i]], prev[after] = after, prev[i]
				at := end
				if s.cfg.Sched == SchedOldestFirst {
					at = prev[end]
				}
				next[i], prev[i] = next[at], at
				prev[next[at]], next[at] = i, i
			}
			return true, nil
		}
		if ws.done {
			next[prev[i]], prev[after] = after, prev[i]
		}
		i = after
	}
	return false, nil
}

// starveCheck scans the wave for a runnable warp the policy has not
// issued for more than Config.StarveLimit modeled cycles. A warp with
// live lanes but no runnable one is *blocked*, not starved — deadlock
// and budget detection own that case — so its clock resets.
func (s *sim) starveCheck(warps []*warpState) error {
	for _, ws := range warps {
		if ws.done {
			continue
		}
		runnable, live := ws.ready()
		if !live {
			continue
		}
		if !runnable {
			ws.lastRunCycle = s.metrics.Cycles
			continue
		}
		if age := s.metrics.Cycles - ws.lastRunCycle; age > s.cfg.StarveLimit {
			return s.warpErr(ws, s.starvationError(ws, age))
		}
	}
	return nil
}

// starvationError builds the typed starvation diagnostic for ws.
func (s *sim) starvationError(ws *warpState, age int64) error {
	e := &StarvationError{
		Warp:      ws.index,
		AgeCycles: age,
		Limit:     s.cfg.StarveLimit,
		Cycles:    s.metrics.Cycles,
		Sched:     s.cfg.Sched,
	}
	e.SM, e.CTA = ws.place()
	return e
}

// watchdogError builds the typed wall-clock budget diagnostic for ws,
// the warp that observed expiry.
func (s *sim) watchdogError(ws *warpState) error {
	e := &WatchdogError{
		Warp:              ws.index,
		Budget:            s.cfg.WallBudget,
		Issues:            s.issues,
		Cycles:            s.metrics.Cycles,
		LastProgressCycle: s.lastProgressCycle,
	}
	e.SM, e.CTA = ws.place()
	return e
}
