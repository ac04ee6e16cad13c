package diffcheck

import (
	"errors"
	"fmt"

	"specrecon/internal/analyze"
	"specrecon/internal/ir"
	"specrecon/internal/simt"
)

// The scheduler-sensitive fault matrix: planted kernels whose bugs are
// invisible to every layer except schedule exploration. Each entry is
// clean under the reference greedy-converge scheduler (the differential
// checker passes), clean to the static analyzer (no diagnosable barrier
// misuse), and fails under one specific scheduling policy — at one
// specific detection layer, which the matrix pins down exactly the way
// matrix.go pins the compile/simulator faults to their layers. A
// statically-clean kernel failing under a legal schedule indicts either
// the kernel's reliance on a progress guarantee the policy does not
// grant, or one of the two engines; cmd/diffhunt's sched axis uses the
// same classification on the corpus to tell those apart.

// SchedLayer identifies which liveness/equivalence layer caught (or
// should catch) a schedule-dependent failure.
type SchedLayer string

const (
	// LayerStarvation: the per-warp starvation monitor fired
	// (simt.StarvationError) — a runnable warp went unissued past the
	// armed limit.
	LayerStarvation SchedLayer = "starvation"
	// LayerDeadlock: the run wedged with no issuable warp
	// (simt.DeadlockError) — a schedule-dependent barrier skew.
	LayerDeadlock SchedLayer = "deadlock"
	// LayerMismatch: both runs terminated but final memory differs from
	// the greedy reference (StageCompare) — a data race the schedule
	// made visible.
	LayerMismatch SchedLayer = "mismatch"
	// LayerBudget: the run exhausted its issue/cycle budget — livelock
	// indistinguishable from starvation without the monitor armed.
	LayerBudget SchedLayer = "budget"
	// LayerOther: some other failure (compile error, watchdog, ...).
	LayerOther SchedLayer = "other"
	// LayerNone: no failure.
	LayerNone SchedLayer = "none"
)

// ClassifySchedFailure maps a differential-check result onto the
// detection layer that produced it.
func ClassifySchedFailure(res Result) SchedLayer {
	if res.OK {
		return LayerNone
	}
	switch res.Stage {
	case StageCompare:
		return LayerMismatch
	case StageRunSpec:
		var se *simt.StarvationError
		if errors.As(res.Err, &se) {
			return LayerStarvation
		}
		var de *simt.DeadlockError
		if errors.As(res.Err, &de) {
			return LayerDeadlock
		}
		var be *simt.BudgetError
		if errors.As(res.Err, &be) {
			return LayerBudget
		}
	}
	return LayerOther
}

// SchedFault is one planted scheduler-sensitive bug: a kernel, the
// policy that exposes it, and the exact layer expected to catch it.
type SchedFault struct {
	Name        string
	Description string
	// Source is the kernel in textual IR; Kernel() parses and wraps it.
	Source string
	// Grid/CTASize/SMs is the launch shape (the greedy reference for a
	// grid launch is the interleaved resident round-robin, which is what
	// makes these kernels greedy-clean).
	Grid, CTASize, SMs int
	// Sched (with SchedSeed/StarveLimit) is the schedule that exposes
	// the bug when applied to the speculative run.
	Sched       simt.SchedPolicy
	SchedSeed   uint64
	StarveLimit int64
	// WantLayer pins the detection layer.
	WantLayer SchedLayer
	// StaticallyClean asserts the analyzer reports no errors on the
	// kernel — the bug is invisible to static analysis by construction,
	// so only the schedule explorer can see it.
	StaticallyClean bool
}

// Kernel parses the fault's source into a checkable kernel.
func (f SchedFault) Kernel() Kernel {
	m, err := ir.Parse(f.Source)
	if err != nil {
		panic(fmt.Sprintf("schedmatrix: %s: %v", f.Name, err))
	}
	return Kernel{Name: f.Name, Module: m, Grid: f.Grid, CTASize: f.CTASize, SMs: f.SMs, Seed: 1}
}

// Options returns the checker options that replay the fault's schedule
// (AutoAnnotate off: the kernels are bare by design and must stay the
// same build under both schedules).
func (f SchedFault) Options() Options {
	// The budget is deliberately tight: these kernels retire in a few
	// thousand issues when healthy, and shrinker candidates that spin
	// must fail fast for minimization to stay cheap.
	return Options{
		MaxIssues:   1 << 17,
		Sched:       f.Sched,
		SchedSeed:   f.SchedSeed,
		StarveLimit: f.StarveLimit,
	}
}

// schedSpinStarve: warp 0 spins on a flag warp 1 sets. Any fair
// schedule terminates; OBE never issues the higher-indexed writer, so
// the armed starvation monitor names warp 1.
const schedSpinStarve = `module schedspin memwords=256
func @k nregs=8 nfregs=0 {
entry:
  tid r0
  const r3, #128
  setlt r1, r0, #32
  cbr r1, spin, writer
spin:
  ld r2, [r3+0]
  cbr r2, sdone, spin
sdone:
  st [r0], r2
  exit
writer:
  const r4, #1
  st [r3], r4
  exit
}
`

// schedBarrierSkew: the reader warp picks its workgroup barrier from a
// racy flag. Under the interleaved greedy reference the read beats the
// writer's (preamble-delayed) store, both warps meet at b0 and the CTA
// releases. Under OBE the writer runs to its ctabar first, the reader
// observes the flag and arrives at b1 — two half-full barriers, no
// issuable warp, a typed deadlock.
const schedBarrierSkew = `module schedskew memwords=256 sharedwords=8
func @k nregs=8 nfregs=0 {
entry:
  tid r0
  const r3, #128
  setlt r1, r0, #32
  cbr r1, writer, reader
writer:
  add r2, r0, #1
  add r2, r2, #1
  add r2, r2, #1
  add r2, r2, #1
  add r2, r2, #1
  add r2, r2, #1
  const r4, #1
  st [r3], r4
  ctabar b0
  exit
reader:
  ld r2, [r3+0]
  cbr r2, skew, meet
meet:
  ctabar b0
  exit
skew:
  ctabar b1
  exit
}
`

// schedRacyRead: the reader warp publishes whatever it saw of the
// writer's flag. The greedy reference reads 0 (the store is delayed
// behind a preamble); a sticky youngest-first schedule runs the writer
// to completion first, the reader publishes 1, and final memory
// disagrees with the baseline.
const schedRacyRead = `module schedracy memwords=256
func @k nregs=8 nfregs=0 {
entry:
  tid r0
  const r3, #128
  setlt r1, r0, #32
  cbr r1, writer, reader
writer:
  add r2, r0, #1
  add r2, r2, #1
  add r2, r2, #1
  add r2, r2, #1
  add r2, r2, #1
  add r2, r2, #1
  const r4, #1
  st [r3], r4
  exit
reader:
  ld r2, [r3+0]
  st [r0], r2
  exit
}
`

// SchedFaultMatrix enumerates the planted scheduler-sensitive faults.
// Every entry must be greedy-clean, analyzer-clean, and caught at
// exactly WantLayer under its policy — TestSchedFaultMatrix enforces
// all three, so the matrix stays an accurate map of the liveness
// detection surface.
func SchedFaultMatrix() []SchedFault {
	return []SchedFault{
		{
			Name:        "spin-starve@obe",
			Description: "cross-warp spin-wait: liveness depends on the writer warp being issued, which OBE never does",
			Source:      schedSpinStarve,
			Grid:        1, CTASize: 64, SMs: 1,
			Sched:       simt.SchedLooseFair,
			StarveLimit: 10_000,
			WantLayer:   LayerStarvation, StaticallyClean: true,
		},
		{
			Name:        "barrier-skew@obe",
			Description: "racy flag steers warps to different ctabars: a legal unfair schedule splits the CTA across b0/b1",
			Source:      schedBarrierSkew,
			Grid:        1, CTASize: 64, SMs: 1,
			Sched:     simt.SchedLooseFair,
			WantLayer: LayerDeadlock, StaticallyClean: true,
		},
		{
			Name:        "racy-read@youngest",
			Description: "unsynchronized flag read published to memory: the result depends on warp issue order",
			Source:      schedRacyRead,
			Grid:        1, CTASize: 64, SMs: 1,
			Sched:     simt.SchedYoungestFirst,
			WantLayer: LayerMismatch, StaticallyClean: true,
		},
	}
}

// SchedMatrixOutcome records how one planted fault fared.
type SchedMatrixOutcome struct {
	Fault SchedFault
	// GreedyClean: the differential check passes under the reference
	// scheduler (the bug is schedule-dependent, not a plain bug).
	GreedyClean bool
	// Got is the layer that caught the fault under its policy; Result
	// is the underlying check outcome.
	Got    SchedLayer
	Result Result
	// AnalyzerClean: the static analyzer reported no errors.
	AnalyzerClean bool
}

// ExpectationMet reports whether the outcome matches the fault's pins:
// greedy-clean, caught at exactly WantLayer, and the analyzer verdict
// as claimed.
func (o SchedMatrixOutcome) ExpectationMet() bool {
	return o.GreedyClean && o.Got == o.Fault.WantLayer &&
		o.AnalyzerClean == o.Fault.StaticallyClean
}

// RunSchedMatrix evaluates every planted scheduler fault: once under
// the greedy reference (must pass), once under its policy (must fail at
// the pinned layer), and once through the static analyzer (must match
// the StaticallyClean claim).
func RunSchedMatrix() []SchedMatrixOutcome {
	faults := SchedFaultMatrix()
	out := make([]SchedMatrixOutcome, 0, len(faults))
	for _, f := range faults {
		k := f.Kernel()
		opts := f.Options()

		greedyOpts := opts
		greedyOpts.Sched = simt.SchedGreedyConverge
		greedyOpts.SchedSeed = 0
		greedyOpts.StarveLimit = 0
		greedy := Check(k, greedyOpts)

		res := Check(k, opts)
		rep := analyze.Analyze(k.Module, analyze.Options{})
		out = append(out, SchedMatrixOutcome{
			Fault:         f,
			GreedyClean:   greedy.OK,
			Got:           ClassifySchedFailure(res),
			Result:        res,
			AnalyzerClean: len(rep.Errors()) == 0,
		})
	}
	return out
}
