// Package simt simulates a SIMT processor executing the virtual ISA of
// internal/ir with Volta-style independent thread scheduling and
// convergence barriers.
//
// Execution model. Threads are grouped into warps of ir.WarpWidth lanes.
// Every lane has its own program counter, register files, call stack and
// RNG stream. Each issue slot, the scheduler groups runnable lanes by PC
// and issues one instruction for one group — the lanes of the group
// execute it in lockstep, which is exactly how a convergence-optimizer
// GPU front end behaves. Conditional branches simply let lanes' PCs
// diverge; the scheduler's grouping then serializes the paths, and SIMT
// efficiency (mean active lanes per issue / warp width) drops.
//
// Convergence barriers. Each warp has a set of barrier registers, each a
// participation bitmask over lanes:
//
//   - join b   (BSSY)  adds the executing lanes to mask(b);
//   - wait b   (BSYNC) blocks a participating lane until every lane in
//     mask(b) is blocked at a wait for b, then releases the whole cohort
//     at once and clears the mask ("threads wait on all participating
//     threads to arrive before clearing the barrier", paper Table 1);
//     a non-participating lane falls through;
//   - waitn b, T  is the soft barrier of paper section 4.6: the cohort
//     releases as soon as min(T, |mask(b)|) lanes are waiting; only the
//     released lanes' bits are cleared;
//   - cancel b (BREAK) removes the executing lanes from mask(b), which
//     may release waiting lanes.
//
// A lane that exits implicitly cancels all its participation (hardware
// behaviour); in Strict mode leftover participation at exit is reported
// as an error instead, which the compiler tests use to prove that
// CancelBarrier placement (paper section 4.2) is complete. If no lane is
// runnable and none can be released, the simulator reports deadlock with
// a diagnostic of every barrier's mask and waiting set.
package simt

import (
	"cmp"
	"fmt"
	"math/bits"
	"time"

	"specrecon/internal/ir"
	"specrecon/internal/rng"
)

// Policy selects how the scheduler picks among runnable PC groups.
type Policy int

const (
	// PolicyMaxGroup issues the most-populated group (ties broken by
	// lowest PC). This mimics a convergence optimizer that maximizes
	// lanes per issue and is the default.
	PolicyMaxGroup Policy = iota
	// PolicyMinPC issues the group with the lowest PC, letting
	// straggler lanes catch up first.
	PolicyMinPC
	// PolicyRoundRobin rotates across groups.
	PolicyRoundRobin
)

func (p Policy) String() string {
	switch p {
	case PolicyMaxGroup:
		return "maxgroup"
	case PolicyMinPC:
		return "minpc"
	case PolicyRoundRobin:
		return "roundrobin"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// CacheConfig sizes the memory system's cache and transaction cost
// model. A warp memory instruction is coalesced into one transaction per
// distinct 128-byte line; transactions issued by one warp instruction
// overlap in the memory system (memory-level parallelism), so the
// instruction pays the worst single-transaction latency plus a
// per-transaction throughput charge — which is what makes converged
// divergent gathers cheaper than the same gathers issued serially by
// diverged lanes. The zero value selects the defaults below.
type CacheConfig struct {
	Sets         int // number of sets (default 128)
	Ways         int // associativity (default 4)
	LineWords    int // words per line (default 16 = 128 bytes)
	HitCost      int // latency of a hitting transaction (default 4)
	MissCost     int // latency of a missing transaction (default 80)
	TxThroughput int // extra cycles per additional transaction (default 6)
}

func (c CacheConfig) withDefaults() CacheConfig {
	return CacheConfig{
		Sets:         cmp.Or(c.Sets, 128),
		Ways:         cmp.Or(c.Ways, 4),
		LineWords:    cmp.Or(c.LineWords, 16),
		HitCost:      cmp.Or(c.HitCost, 4),
		MissCost:     cmp.Or(c.MissCost, 80),
		TxThroughput: cmp.Or(c.TxThroughput, 6),
	}
}

// DefaultMaxIssues is the issue budget applied when Config.MaxIssues is
// zero: large enough for every experiment in the repo, small enough that
// a livelocked kernel fails in seconds rather than hanging a figure run.
const DefaultMaxIssues = 1 << 28

// Config controls one kernel launch.
//
// Launch shapes. Every launch is a sequence of waves — sets of warps
// resident on a machine together — run one after another by the same
// loop (runWave); within a wave the warps take turns issuing, so they
// contend for the cache and can meet at a ctabar. The shapes differ only
// in what a wave is:
//
//   - A flat launch (Grid == 0) is Threads threads in one implicit CTA on
//     one SM. By default it runs to completion one warp at a time: every
//     warp is a wave of its own.
//   - A flat launch with InterleaveWarps, or under a non-greedy Sched,
//     is one wave of all its warps.
//   - A grid launch (Grid > 0) runs Grid CTAs of CTASize threads over SMs
//     streaming multiprocessors: CTAs are assigned round-robin (CTA c
//     runs on SM c%SMs), each SM is a machine of its own, and an SM's
//     waves are as many of its CTAs as fit on it at once. Each CTA owns a
//     shared-memory segment and its ctabar workgroup barriers.
//
// Model, Sched, the sampler, the starvation monitor and the budgets act
// inside the loop, so each applies to every shape. A ctabar only collects
// warps that share a wave: a kernel whose warps must meet at one needs
// InterleaveWarps, a non-greedy Sched or a grid launch, and the default
// flat launch reports the first warp to reach it as deadlocked.
type Config struct {
	Kernel  string // entry function (default: first function)
	Threads int    // total threads (default: one warp; grid launches derive it)
	Seed    uint64
	Policy  Policy
	// Sched selects the inter-warp scheduling policy (see SchedPolicy
	// in sched.go): how a pass of the wave loop picks among the wave's
	// warps. Under the default greedy-converge every eligible warp issues
	// once per pass; under any other policy one warp, the policy's pick,
	// issues per pass — and a flat launch becomes one wave of all its
	// warps, as under InterleaveWarps, so the policy has warps to choose
	// among.
	Sched SchedPolicy
	// SchedSeed seeds SchedRandom's pick streams. Each SM derives its
	// own stream from (Seed, SchedSeed, SM index), so sharded runs stay
	// deterministic for any Workers count.
	SchedSeed uint64
	// StarveLimit, when positive, arms the starvation monitor on
	// policy-scheduled launches (Sched != SchedGreedyConverge): a
	// resident warp with runnable lanes left unissued for more than
	// StarveLimit modeled cycles fails the launch with a typed
	// StarvationError. Warps blocked at barriers are not starved —
	// deadlock and budget detection own those.
	StarveLimit int64
	// WallBudget, when positive, bounds the launch's wall-clock time
	// beside the modeled MaxIssues budget; a typed
	// WatchdogError fires once it is exceeded (checked per SM on grid
	// launches, amortized over issues).
	WallBudget time.Duration
	// Grid, when positive, launches a grid of Grid CTAs of CTASize
	// threads each (CTASize defaults to one warp, capped at
	// MaxThreadsPerCTA) across SMs streaming multiprocessors (default 1,
	// capped at MaxSMs). Threads is derived as Grid*CTASize. An SM's
	// wave is the CTAs co-resident on it (see occupancy).
	Grid    int
	CTASize int
	SMs     int
	// Workers bounds the goroutines simulating SMs concurrently (default
	// 1 = serial). Each SM runs over private machine state and results
	// are merged in SM order, so any worker count produces byte-identical
	// metrics, memory, profiles and event streams.
	Workers int
	// Model selects the divergence model — which lanes of a warp issue
	// next and where they go: Volta-style independent thread scheduling
	// with convergence barriers (default) or the pre-Volta reconvergence
	// stack (stack.go). Every launch shape, scheduler and observer works
	// under both.
	Model Model
	// InterleaveWarps makes a flat launch one wave of all its warps
	// instead of one wave per warp, so concurrent warps contend for the
	// cache as on a real SM and can meet at a ctabar. Results of kernels
	// whose warps only interact through memory are unaffected (atomics
	// remain atomic); cache statistics become more realistic. Grid
	// launches always interleave their resident warps and reject the
	// flag.
	InterleaveWarps bool
	// Strict makes leftover barrier participation at thread exit an
	// error instead of an implicit cancel.
	Strict bool
	// MaxIssues bounds total issued warp instructions (default
	// DefaultMaxIssues).
	MaxIssues int64
	// SkipReleaseN, when positive, makes the simulator silently skip the
	// Nth barrier-cohort release (1-based, counted launch-wide): the
	// cohort's lanes stay blocked and the barrier's participation mask is
	// still cleared, so no later wait can release them. This models a
	// hardware/runtime fault losing a release and exists to prove the
	// deadlock detector and differential checker catch it. ModelITS
	// only (the stack model has no barrier releases to skip).
	SkipReleaseN int64
	// Memory is the initial global memory image; it is copied, and the
	// final memory is returned in Result.Memory. The image is as long as
	// the longer of Memory and the module's MemWords.
	Memory []uint64
	Cache  CacheConfig
	// Events, when non-nil, receives the generalized simulator event
	// stream (issues, branch resolutions, barrier waits and releases,
	// cache accesses, calls and returns) under either divergence model.
	// See events.go; combine several observers with TeeSinks.
	//
	// Delivery rule, for Events and Samples alike: the sink is called from
	// one goroutine at a time and, on a grid launch, sees SM 0's whole
	// stream, then SM 1's, and so on, for any Workers count — including
	// every SM's stream up to its own end when the launch fails. With
	// Workers <= 1 (the default) the SMs run one after another and each
	// record is delivered as it happens, nothing stored; with Workers > 1
	// each SM's streams are kept in per-SM Logs (the launch allocates
	// their bytes plus at most one chunk per stream and SM) and replayed
	// in SM order once every SM has retired, every event before the first
	// sample. A sink on both fields therefore sees the same two streams
	// for any worker count but may see them interleaved differently, and
	// must not depend on that. An Event pointer is good for the call only
	// (see EventSink).
	Events EventSink
	// SampleStride, when positive, enables the per-SM occupancy/stall
	// sampler: one Sample per stride of modeled cycles, recorded at the
	// end of a pass over the wave. It samples the waves that warps share
	// — an SM's on a grid launch, a flat launch's one wave under
	// InterleaveWarps or a non-greedy Sched (as SM 0) — and not the
	// one-warp waves of a run-to-completion flat launch; see sample.go.
	SampleStride int64
	// Samples receives the occupancy samples, by value, under the delivery
	// rule stated at Events.
	Samples SampleSink
}

// Result is the outcome of a launch.
type Result struct {
	Metrics Metrics
	Memory  []uint64
	// Shared holds each CTA's final shared-memory image, indexed by CTA,
	// when the module declares a shared segment (nil otherwise). A flat
	// launch with shared memory reports its single implicit CTA.
	Shared [][]uint64
	// PerSM holds each SM's own metrics on a grid launch (nil on flat
	// launches); Metrics is their deterministic merge.
	PerSM []Metrics
}

type laneStatus uint8

const (
	laneRunning    laneStatus = iota
	laneWaiting               // blocked at wait/waitn on waitBar
	laneSyncing               // blocked at warpsync
	laneCTAWaiting            // blocked at a ctabar workgroup barrier on waitBar
	laneDone
)

// frame is one call-stack record: the PC a ret resumes at.
type frame struct {
	ret uint32
}

// warpState is the per-warp machine state, laid out warp-major: there is
// no per-lane object. Lane l's thread ids are the two per-warp bases plus
// l, and everything else a lane owns is element l of a dense array.
type warpState struct {
	sim   *sim
	index int // launch-wide warp index (unique across CTAs and SMs)
	// cta is the owning CTA (the implicit whole-launch CTA on a flat
	// launch); ctaIndex caches its index for event emission and ctaid.
	cta      *ctaState
	ctaIndex int32
	done     bool // every lane exited (set by tryStep)
	// tidBase and ctatidBase are lane 0's global and CTA-relative thread
	// ids (equal on flat launches).
	tidBase, ctatidBase int
	// regs and fregs are the register files, column-major: register r of
	// lane l is regs[r*WarpWidth+l], so one instruction's operands are
	// two or three contiguous 32-element columns (icol/fcol).
	regs  []int64
	fregs []float64
	// status, waitBar (the barrier a blocked lane waits on), stacks and
	// rngs are indexed by lane.
	status  [ir.WarpWidth]laneStatus
	waitBar [ir.WarpWidth]int32
	stacks  [ir.WarpWidth][]frame
	rngs    [ir.WarpWidth]rng.Source
	// pcs[l] is lane l's PC when the lane is not running, and every
	// lane's PC while the group table is stale. A running lane's PC lives
	// in its group-table entry instead (see invalidate).
	pcs      [ir.WarpWidth]uint32
	masks    []uint32 // barrier participation masks
	waiting  []uint32 // lanes blocked at a wait per barrier
	rrCursor int
	// lastIssueSlot is the SM issue count at this warp's most recent
	// issue (the aging key of the oldest/youngest-first policies);
	// lastRunCycle is the modeled cycle of that issue, which the
	// starvation monitor ages against. Both reset when the warp's wave
	// becomes resident.
	lastIssueSlot int64
	lastRunCycle  int64
	// groupBuf[:ngroups] is the warp's resident runnable-group table:
	// one (PC, lane mask) entry per distinct PC among the running lanes,
	// sorted by PC, with anyLive recording whether any lane has not
	// exited. While stale is clear the table is where the running lanes'
	// PCs live: issue edits the entry it picked in place and writes no
	// per-lane PC. Everything that changes a lane's status or moves lanes
	// non-uniformly calls invalidate first, which spills the entries' PCs
	// to pcs and sets stale so the next groups() call rescans.
	groupBuf [ir.WarpWidth]group
	ngroups  int
	anyLive  bool
	stale    bool
	// stack is the divergence stack under ModelStack (stack.go), where it
	// replaces the group table as the home of the running lanes' PCs; it
	// stays empty under ModelITS.
	stack []stackEntry
	// addrBuf is per-issue scratch for the active lanes' addresses, so
	// the steady-state issue loop performs no heap allocations.
	addrBuf [ir.WarpWidth]int64
}

// sim is one SM's machine state plus the launch-wide immutable decode
// tables. A flat launch runs its waves on a single sim, with its own
// memory image; a grid launch forks one sim per SM (sharing the
// module, config and decode tables, with private memory, cache, metrics
// and budgets) and merges them deterministically in SM order.
type sim struct {
	mod *ir.Module
	cfg Config
	// decodeTable is the decode-time side table: meta indexed by PC plus
	// the block-start table.
	*decodeTable
	// ipdom is the stack model's reconvergence table, indexed [fn][blk]
	// (nil under ModelITS, which never reads it); SM forks share it.
	ipdom [][]int
	// Global memory has two representations, fixed when the sim is built:
	// a flat launch's sim owns the image in mem; a grid launch's root sim
	// holds the initial template there, and each SM fork reaches it through
	// cow, its copy-on-write view (mem nil on a fork, cow nil elsewhere).
	// memLen is the image length in words on every sim — the bounds check
	// the hot path uses.
	mem     []uint64
	memLen  int
	cow     *cowMem
	cache   *cache
	metrics Metrics
	issues  int64
	// evs is where this SM builds the events it reports; its first event
	// allocates it, so a launch nobody observes carries a nil pointer.
	evs *eventScratch
	// smIndex is this SM's index (0 on flat launches); gridMode marks a
	// grid launch, where errors carry SM/CTA identity.
	smIndex  int32
	gridMode bool
	// ctaSize is the thread count of one CTA (the whole launch on flat
	// launches); it backs the ctasize opcode.
	ctaSize int
	// ctas are the CTAs that ran on this SM, in launch order (flat
	// launches hold the single implicit CTA).
	ctas []*ctaState
	// releases counts barrier-cohort release events launch-wide; the
	// SkipReleaseN fault injector compares against it.
	releases int64
	// lastProgressCycle is the modeled cycle of the most recent forward
	// progress (barrier release, warpsync release, or lane exit); it
	// feeds the cycles-since-progress diagnostics in DeadlockError and
	// BudgetError.
	lastProgressCycle int64
	// Scheduler-policy state (sched.go). schedRng is SchedRandom's
	// per-SM pick stream; schedBuf is the policy's selection state over
	// the resident wave (the priority list of oldest-first, youngest-first
	// and OBE, or SchedRandom's schedLive not-yet-done positions and their
	// scratch; arena scratch laid out by schedInit); slot counts the current
	// wave's issued policy slots while the starvation monitor is armed
	// (its scan stride); wallDeadline is the wall-clock watchdog's
	// deadline (zero when WallBudget is off).
	schedRng     rng.Source
	schedBuf     []int32
	schedLive    int
	slot         int64
	wallDeadline time.Time
	// Occupancy-sampler state (sample.go). sampleSink is this SM's
	// resolved sink (nil when sampling is off — the hot-path check);
	// lastSampleCycle / memStallSampled mark the previous sample's
	// window edge, and memStallAcc accumulates cycles charged beyond
	// base latency (the mem-stall attribution source).
	sampleSink      SampleSink
	lastSampleCycle int64
	memStallAcc     int64
	memStallSampled int64
	entryPC         uint32 // PC of the kernel's first instruction
	nbar            int
	nregs           int
	nfregs          int
	// afterIssue, when non-nil, runs after every successful ITS issue
	// with the warp that issued. Test-only seam: export_test.go installs
	// the group-table invariant check through it, and forkSM hands it to
	// every SM.
	afterIssue func(ws *warpState)

	// Launch-arena pools. Warp and CTA state objects are always recorded
	// in these pools as they are built; poolWarp/poolCTA are the cursors
	// into them. A fresh launch allocates through the pool (one append
	// per object); a Machine relaunch rewinds the cursors and takeWarp/
	// newCTA hand back the existing objects reset in place, so
	// steady-state launches allocate (almost) nothing.
	warpPool []*warpState
	ctaPool  []*ctaState
	poolWarp int
	poolCTA  int
	// runGrid keeps its per-SM forks, merge scratch and (for Workers > 1
	// launches only) replay logs on the fields below, so a Machine's next
	// launch resets them instead of reallocating.
	smPool     []*sim
	replay     []smReplay
	sharedBuf  [][]uint64
	perSMBuf   []Metrics
	writtenBuf []uint64
}

// normalizeConfig validates cfg against m and fills in every default
// (kernel name, CTA size, SM and worker counts, derived thread count,
// issue budget), returning the normalized config and the global-memory
// image size in words. newSim and Machine.Run share it so a relaunch
// config is normalized exactly like a fresh one.
func normalizeConfig(m *ir.Module, cfg Config) (Config, int, error) {
	if cfg.Kernel == "" {
		cfg.Kernel = m.Funcs[0].Name
	}
	entry := m.FuncByName(cfg.Kernel)
	if entry == nil {
		return cfg, 0, fmt.Errorf("simt: kernel %q not found", cfg.Kernel)
	}
	if cfg.Grid < 0 {
		return cfg, 0, fmt.Errorf("simt: negative grid size %d", cfg.Grid)
	}
	if cfg.Grid > 0 {
		if cfg.InterleaveWarps {
			return cfg, 0, fmt.Errorf("simt: InterleaveWarps does not apply to grid launches (SMs always interleave their resident warps)")
		}
		if cfg.CTASize == 0 {
			cfg.CTASize = ir.WarpWidth
		}
		if cfg.CTASize < 1 || cfg.CTASize > MaxThreadsPerCTA {
			return cfg, 0, fmt.Errorf("simt: CTA size %d outside [1,%d]", cfg.CTASize, MaxThreadsPerCTA)
		}
		if cfg.SMs == 0 {
			cfg.SMs = 1
		}
		if cfg.SMs < 1 || cfg.SMs > MaxSMs {
			return cfg, 0, fmt.Errorf("simt: SM count %d outside [1,%d]", cfg.SMs, MaxSMs)
		}
		if m.SharedWords > SharedMemWordsPerSM {
			return cfg, 0, fmt.Errorf("simt: module shared segment (%d words) exceeds SM shared memory (%d words)", m.SharedWords, SharedMemWordsPerSM)
		}
		if cfg.Workers < 1 {
			cfg.Workers = 1
		}
		if cfg.Workers > cfg.SMs {
			cfg.Workers = cfg.SMs
		}
		cfg.Threads = cfg.Grid * cfg.CTASize
	}
	if cfg.Threads == 0 {
		cfg.Threads = ir.WarpWidth
	}
	if cfg.Threads < 0 {
		return cfg, 0, fmt.Errorf("simt: negative thread count %d", cfg.Threads)
	}
	if cfg.MaxIssues == 0 {
		cfg.MaxIssues = DefaultMaxIssues
	}
	if cfg.Sched < SchedGreedyConverge || cfg.Sched > SchedRandom {
		return cfg, 0, fmt.Errorf("simt: unknown sched policy %v", cfg.Sched)
	}
	if cfg.StarveLimit < 0 {
		return cfg, 0, fmt.Errorf("simt: negative starvation limit %d", cfg.StarveLimit)
	}
	if cfg.WallBudget < 0 {
		return cfg, 0, fmt.Errorf("simt: negative wall-clock budget %v", cfg.WallBudget)
	}
	if cfg.SampleStride < 0 {
		return cfg, 0, fmt.Errorf("simt: negative sample stride %d", cfg.SampleStride)
	}
	// A negative cache geometry or cost cannot be built or priced with
	// (zero selects the default), and a set's fill count holds maxCacheWays.
	if c := cfg.Cache; min(c.Sets, c.Ways, c.LineWords, c.HitCost, c.MissCost, c.TxThroughput) < 0 {
		return cfg, 0, fmt.Errorf("simt: negative cache configuration %+v", c)
	} else if c.Ways > maxCacheWays {
		return cfg, 0, fmt.Errorf("simt: cache Ways %d exceeds %d", c.Ways, maxCacheWays)
	}

	return cfg, max(m.MemWords, len(cfg.Memory)), nil
}

// newSim validates the module and configuration and builds the
// launch-wide state, including the decode-time side tables the issue
// loop runs on. Run drives it; the allocation-guard test constructs sims
// directly to step warps by hand.
func newSim(m *ir.Module, cfg Config) (*sim, error) {
	if err := ir.VerifyModule(m); err != nil {
		return nil, fmt.Errorf("simt: module invalid: %w", err)
	}
	cfg, memWords, err := normalizeConfig(m, cfg)
	if err != nil {
		return nil, err
	}
	mem := make([]uint64, memWords)
	copy(mem, cfg.Memory)

	s := &sim{
		mod:         m,
		cfg:         cfg,
		decodeTable: buildDecode(m),
		mem:         mem,
		memLen:      memWords,
		cache:       newCache(cfg.Cache.withDefaults()),
		gridMode:    cfg.Grid > 0,
		ctaSize:     cfg.Threads,
	}
	s.metrics = newMetrics(s.decodeTable)
	if cfg.Model == ModelStack {
		s.ipdom = buildIpdom(m)
	}
	for fi, f := range m.Funcs {
		if f.Name == cfg.Kernel {
			s.entryPC = s.blockStart(fi, 0)
		}
	}

	s.nbar = 1
	for _, f := range m.Funcs {
		if n := f.MaxBarrier() + 1; n > s.nbar {
			s.nbar = n
		}
	}
	s.nregs, s.nfregs = m.MaxRegs()
	if s.nregs < 1 {
		s.nregs = 1
	}
	if s.nfregs < 1 {
		s.nfregs = 1
	}
	if s.gridMode {
		s.ctaSize = cfg.CTASize
	} else {
		// Flat launch: the whole launch acts as one implicit CTA, which
		// gives ctabar and shared memory their degenerate-case meaning.
		s.ctas = append(s.ctas, s.newCTA(0, cfg.Threads))
	}
	return s, nil
}

// takeWarp hands out the next warpState from the launch arena: past the
// pool cursor it allocates (recording the object in the pool), behind it
// — only after a Machine relaunch rewound the cursor — it rewinds the
// existing object's per-warp state and clears its register files in
// place. Lane status, stacks, PCs and RNG streams are reinitialized by
// resetLane.
func (s *sim) takeWarp() *warpState {
	if s.poolWarp < len(s.warpPool) {
		ws := s.warpPool[s.poolWarp]
		s.poolWarp++
		ws.done = false
		ws.stale = true
		ws.stack = ws.stack[:0]
		ws.rrCursor = 0
		ws.lastIssueSlot = s.issues
		ws.lastRunCycle = s.metrics.Cycles
		clear(ws.regs)
		clear(ws.fregs)
		clear(ws.masks)
		clear(ws.waiting)
		return ws
	}
	// A fresh warp is four objects: the state, the two register files and
	// the barrier masks.
	ws := &warpState{
		sim:   s,
		stale: true,
		regs:  make([]int64, ir.WarpWidth*s.nregs),
		fregs: make([]float64, ir.WarpWidth*s.nfregs),
	}
	bars := make([]uint32, 2*s.nbar)
	ws.masks, ws.waiting = bars[:s.nbar:s.nbar], bars[s.nbar:]
	ws.lastIssueSlot = s.issues
	ws.lastRunCycle = s.metrics.Cycles
	s.warpPool = append(s.warpPool, ws)
	s.poolWarp++
	return ws
}

// resetLane (re)initializes lane l of ws to the state a freshly
// constructed lane would have: empty call stack, entry PC, and the RNG
// stream rng.Split(seed, tid) derives (takeWarp zeroed the registers).
func (ws *warpState) resetLane(l int, done bool) {
	ws.stale = true
	ws.pcs[l] = ws.sim.entryPC
	ws.status[l] = laneRunning
	if done {
		ws.status[l] = laneDone
	}
	ws.waitBar[l] = 0
	ws.stacks[l] = ws.stacks[l][:0]
	ws.rngs[l].Reseed(ws.sim.cfg.Seed, uint64(ws.tidBase+l))
}

// icol returns the 32-lane column of integer register r. Only operands
// the opcode really uses may be taken: an unused one is NoReg, and a
// float register index may exceed the integer file.
func (ws *warpState) icol(r ir.Reg) *[ir.WarpWidth]int64 {
	return (*[ir.WarpWidth]int64)(ws.regs[int(r)*ir.WarpWidth:])
}

// fcol returns the 32-lane column of float register r.
func (ws *warpState) fcol(r ir.Reg) *[ir.WarpWidth]float64 {
	return (*[ir.WarpWidth]float64)(ws.fregs[int(r)*ir.WarpWidth:])
}

// newCTA hands out the next ctaState from the launch arena, mirroring
// takeWarp: fresh launches allocate through the pool, Machine relaunches
// reuse the pooled object with its shared segment zeroed in place.
func (s *sim) newCTA(index, size int) *ctaState {
	if s.poolCTA < len(s.ctaPool) {
		c := s.ctaPool[s.poolCTA]
		s.poolCTA++
		c.index = index
		c.live = size
		for i := range c.shared {
			c.shared[i] = 0
		}
		c.warps = c.warps[:0]
		c.arrived = [NumCTABarriers]int32{}
		return c
	}
	c := newCTAState(index, size, s.mod.SharedWords)
	s.ctaPool = append(s.ctaPool, c)
	s.poolCTA++
	return c
}

// newCTAWarp builds warp wi of cta. Lane tids are CTA-relative-first:
// ctatid = wi*WarpWidth+lane, tid = cta*CTASize + ctatid, so a CTA whose
// size is not a warp multiple ends with a partial warp. A flat launch is
// the one implicit CTA 0 of Threads threads, so there tid == ctatid and
// the warp's launch-wide index is wi.
func (s *sim) newCTAWarp(cta *ctaState, wi int) *warpState {
	warpsPerCTA := (s.ctaSize + ir.WarpWidth - 1) / ir.WarpWidth
	ws := s.takeWarp()
	ws.index = cta.index*warpsPerCTA + wi
	ws.cta = cta
	ws.ctaIndex = int32(cta.index)
	ws.ctatidBase = wi * ir.WarpWidth
	ws.tidBase = cta.index*s.ctaSize + ws.ctatidBase
	for l := 0; l < ir.WarpWidth; l++ {
		ws.resetLane(l, ws.ctatidBase+l >= s.ctaSize)
	}
	if s.cfg.Model == ModelStack {
		ws.stack = append(ws.stack, stackEntry{pc: s.entryPC, mask: ws.liveMask(), rpc: noPC})
	}
	cta.warps = append(cta.warps, ws)
	return ws
}

// Run launches the module's kernel under cfg and simulates it to
// completion: every launch shape is a sequence of waves handed to the
// one wave loop, runWave (see Config).
func Run(m *ir.Module, cfg Config) (*Result, error) {
	s, err := newSim(m, cfg)
	if err != nil {
		return nil, err
	}
	return s.launch()
}

// launch drives one launch over s's (fresh or arena-reset) state. A
// grid launch forks its SMs, which run their occupancy-limited waves; a
// flat launch runs its warps on s itself, as one wave of them all when
// they share the machine (InterleaveWarps or a non-greedy Sched) and
// else as one wave per warp.
func (s *sim) launch() (*Result, error) {
	if s.cfg.WallBudget > 0 {
		s.wallDeadline = time.Now().Add(s.cfg.WallBudget)
	}
	if s.gridMode {
		return s.runGrid()
	}
	cfg := s.cfg
	cta := s.ctas[0]
	nwarps := (cfg.Threads + ir.WarpWidth - 1) / ir.WarpWidth
	for w := 0; w < nwarps; w++ {
		s.newCTAWarp(cta, w)
	}
	wave := 1
	if cfg.InterleaveWarps || cfg.Sched != SchedGreedyConverge {
		// The shared wave samples as SM 0; a wave of one warp has no
		// occupancy to sample.
		wave = nwarps
		_, s.sampleSink = s.smSinks(0, nil)
	}
	for w := 0; w < nwarps; w += wave {
		if err := s.runWave(cta.warps[w : w+wave]); err != nil {
			return nil, err
		}
	}
	s.metrics.Threads = cfg.Threads
	s.metrics.Warps = nwarps
	s.metrics.CTAs = 1
	s.metrics.SMs = 1
	s.metrics.TotalSMCycles = s.metrics.Cycles
	s.metrics.finalize()
	res := &Result{Metrics: s.metrics, Memory: s.mem}
	res.Metrics.detach()
	if s.mod.SharedWords > 0 {
		res.Shared = [][]uint64{cta.shared}
	}
	return res, nil
}

// resetForLaunch rewinds a Machine-owned sim to launch cfg: the memory
// image is rebuilt from cfg.Memory, the cache, metrics and budgets are
// cleared in place, and the arena cursors rewind so warp/CTA state is
// reused instead of reallocated. cfg must already be normalized and
// shape-compatible (Machine.Run checks).
func (s *sim) resetForLaunch(cfg Config) {
	s.cfg = cfg
	n := copy(s.mem, cfg.Memory)
	for i := n; i < len(s.mem); i++ {
		s.mem[i] = 0
	}
	s.wallDeadline = time.Time{}
	s.sampleSink = nil
	s.rewind()
	if !s.gridMode {
		s.ctas = append(s.ctas, s.newCTA(0, cfg.Threads))
	}
}

// rewind clears what one launch leaves on a machine — the cache, the
// metrics, the budgets' and the sampler's counters — in place, and
// rewinds the arena cursors.
func (s *sim) rewind() {
	s.cache.reset()
	s.metrics.reset()
	s.issues = 0
	s.releases = 0
	s.lastProgressCycle = 0
	s.lastSampleCycle = 0
	s.memStallAcc = 0
	s.memStallSampled = 0
	s.poolWarp = 0
	s.poolCTA = 0
	s.ctas = s.ctas[:0]
}

// tryStep issues at most one instruction of ws, the only way a warp
// steps. The divergence model supplies what to issue — the group the
// Policy picks under ITS, the settled top of the divergence stack under
// the stack model — and everything else is common. A warp with live but
// unrunnable lanes reports issued=false rather than a deadlock, because
// another warp of its wave may still open the ctabar it is blocked on;
// runWave declares deadlock only when a whole pass issues nothing. Once
// every lane has exited the warp is marked done.
func (ws *warpState) tryStep() (issued bool, err error) {
	if ws.done {
		return false, nil
	}
	s := ws.sim
	var gi int
	var g group
	if s.cfg.Model == ModelStack {
		runnable, live := ws.settle()
		if !runnable {
			ws.done = !live
			return false, nil
		}
		top := &ws.stack[len(ws.stack)-1]
		g = group{pc: top.pc, mask: top.mask}
	} else {
		groups, live := ws.groups()
		if len(groups) == 0 {
			ws.done = !live
			return false, nil
		}
		gi = ws.pick(groups)
		g = groups[gi]
	}
	if s.issues >= s.cfg.MaxIssues {
		return false, s.budgetError(ws)
	}
	if s.issues&watchdogCheckMask == 0 && s.watchdogExpired() {
		return false, s.watchdogError(ws)
	}
	return true, ws.issue(gi, g)
}

// ready reports whether the warp has a runnable lane and whether any of
// its lanes is still live (not exited) — the one question the wave loop,
// the starvation monitor and the deadlock report ask of either
// divergence model.
func (ws *warpState) ready() (runnable, live bool) {
	if ws.sim.cfg.Model == ModelStack {
		return ws.settle()
	}
	groups, anyLive := ws.groups()
	return len(groups) > 0, anyLive
}

// group is a set of runnable lanes sharing a PC. While the table is
// current the entry is the only place that PC is recorded.
type group struct {
	pc   uint32
	mask uint32
}

// groups returns the runnable PC groups sorted by PC, plus whether any
// lane is still live (running, waiting or syncing). The slice is the
// warp's resident table — callers must not modify it, and it is valid
// until the warp next issues. Only a table marked stale is rebuilt from
// the lanes; otherwise issue has kept it current.
func (ws *warpState) groups() ([]group, bool) {
	if ws.stale {
		ws.rescan()
	}
	return ws.groupBuf[:ws.ngroups], ws.anyLive
}

// rescan rebuilds the stale table from the lanes. It is kept out of line
// so that groups, whose common case is a current table, inlines into
// tryStep.
//
//go:noinline
func (ws *warpState) rescan() {
	ws.ngroups, ws.anyLive = scanGroups(&ws.status, &ws.pcs, &ws.groupBuf)
	ws.stale = false
}

// invalidate hands the running lanes' PCs back to pcs and marks the
// table for rebuild. Every path that changes a lane's status or moves
// lanes non-uniformly calls it before its per-lane edits. On a table
// that is already stale it does nothing: such a table may be out of
// date, and pcs is the authority.
func (ws *warpState) invalidate() {
	if ws.stale {
		return
	}
	ws.stale = true
	for _, g := range ws.groupBuf[:ws.ngroups] {
		for m := g.mask; m != 0; m &= m - 1 {
			ws.pcs[bits.TrailingZeros32(m)&laneMask] = g.pc
		}
	}
}

// scanGroups derives the group table from per-lane status and PCs into
// buf: a warp has at most WarpWidth groups, so grouping is an insertion
// into a small sorted array rather than a map-and-sort — no heap
// allocation. It returns the entry count and whether any lane has not
// exited.
func scanGroups(status *[ir.WarpWidth]laneStatus, pcs *[ir.WarpWidth]uint32, buf *[ir.WarpWidth]group) (int, bool) {
	n := 0
	anyLive := false
	for l, st := range status {
		switch st {
		case laneWaiting, laneSyncing, laneCTAWaiting:
			anyLive = true
		case laneRunning:
			anyLive = true
			n = insertGroup(buf, n, pcs[l], 1<<l)
		}
	}
	return n, anyLive
}

// insertGroup adds mask at pc to the sorted table buf[:n], merging into
// an existing entry with the same PC, and returns the new entry count.
func insertGroup(buf *[ir.WarpWidth]group, n int, pc uint32, mask uint32) int {
	i := n
	for i > 0 && buf[i-1].pc >= pc {
		if buf[i-1].pc == pc {
			buf[i-1].mask |= mask
			return n
		}
		i--
	}
	copy(buf[i+1:n+1], buf[i:n])
	buf[i] = group{pc: pc, mask: mask}
	return n + 1
}

// removeGroup deletes entry i of the warp's resident table.
func (ws *warpState) removeGroup(i int) {
	copy(ws.groupBuf[i:ws.ngroups-1], ws.groupBuf[i+1:ws.ngroups])
	ws.ngroups--
}

// pick returns the index in groups of the group to issue.
func (ws *warpState) pick(groups []group) int {
	switch ws.sim.cfg.Policy {
	case PolicyMinPC:
		return 0
	case PolicyRoundRobin:
		i := ws.rrCursor % len(groups)
		ws.rrCursor++
		return i
	default: // PolicyMaxGroup
		best, bestN := 0, bits.OnesCount32(groups[0].mask)
		for i := 1; i < len(groups); i++ {
			if n := bits.OnesCount32(groups[i].mask); n > bestN {
				best, bestN = i, n
			}
		}
		return best
	}
}

// place locates the warp in the GPU hierarchy for a typed diagnostic:
// its SM and CTA on a grid launch, -1 and -1 on a flat one, which has no
// hierarchy to name.
func (ws *warpState) place() (sm, cta int) {
	if !ws.sim.gridMode {
		return -1, -1
	}
	return int(ws.sim.smIndex), int(ws.ctaIndex)
}

// deadlockError builds a typed diagnostic describing why no lane can
// proceed: every barrier with leftover state and every blocked lane's
// per-lane PC.
func (ws *warpState) deadlockError() error {
	e := &DeadlockError{Warp: ws.index, Cycles: ws.sim.metrics.Cycles}
	e.SM, e.CTA = ws.place()
	if since := ws.sim.metrics.Cycles - ws.sim.lastProgressCycle; since > 0 {
		e.CyclesSinceProgress = since
	}
	for b := range ws.masks {
		if ws.masks[b] == 0 && ws.waiting[b] == 0 {
			continue
		}
		e.Barriers = append(e.Barriers, BarrierSnapshot{Bar: b, Mask: ws.masks[b], Waiting: ws.waiting[b]})
	}
	for l, st := range ws.status {
		switch st {
		case laneWaiting, laneCTAWaiting:
			// A blocked lane is not in the group table: pcs holds its PC.
			im := &ws.sim.meta[ws.pcs[l]]
			fnName, blkName := ws.sim.names(im)
			e.Lanes = append(e.Lanes, BlockedLane{
				Lane: l, Fn: fnName, Block: blkName, Ins: int(im.ins),
				Bar: int(ws.waitBar[l]), CTABar: st == laneCTAWaiting,
			})
		case laneSyncing:
			e.Lanes = append(e.Lanes, BlockedLane{Lane: l, Bar: -1})
		}
	}
	return e
}

// budgetError builds the typed budget-exhaustion diagnostic for ws, the
// warp that hit the limit.
func (s *sim) budgetError(ws *warpState) error {
	e := &BudgetError{
		Warp:              ws.index,
		MaxIssues:         s.cfg.MaxIssues,
		Issues:            s.issues,
		Cycles:            s.metrics.Cycles,
		LastProgressCycle: s.lastProgressCycle,
	}
	e.SM, e.CTA = ws.place()
	return e
}

// liveMask returns the lanes that have not exited.
func (ws *warpState) liveMask() uint32 {
	var m uint32
	for l, st := range ws.status {
		if st != laneDone {
			m |= 1 << l
		}
	}
	return m
}

// releaseCheck releases the cohort waiting on barrier b if the release
// condition holds: every participating lane is waiting (hard barrier).
func (ws *warpState) releaseCheck(b int) {
	m := ws.masks[b]
	w := ws.waiting[b]
	if m == 0 || w&m != m {
		return
	}
	ws.release(b, w)
	ws.masks[b] = 0
}

// releaseCheckSoft releases the waiting cohort once at least threshold
// lanes wait, or once every participant is waiting. Only the released
// lanes leave the participation mask.
func (ws *warpState) releaseCheckSoft(b int, threshold int) {
	m := ws.masks[b]
	w := ws.waiting[b]
	if w == 0 {
		return
	}
	need := threshold
	if pm := bits.OnesCount32(m); pm < need {
		need = pm
	}
	if bits.OnesCount32(w) >= need || w&m == m {
		ws.release(b, w)
		ws.masks[b] &^= w
	}
}

// release unblocks the given lanes past their wait instruction.
func (ws *warpState) release(b int, cohort uint32) {
	ws.invalidate()
	ws.sim.releases++
	if ws.sim.cfg.SkipReleaseN > 0 && ws.sim.releases == ws.sim.cfg.SkipReleaseN {
		// Injected fault: lose this release. The cohort stays blocked and
		// its waiting bits stay set, but the caller still clears the
		// participation mask, so nothing can ever release these lanes.
		return
	}
	var released uint32
	for m := cohort; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		if ws.status[l] != laneWaiting || int(ws.waitBar[l]) != b {
			continue
		}
		ws.status[l] = laneRunning
		ws.pcs[l]++ // step past the wait
		released |= 1 << l
		ws.sim.metrics.BarrierReleases++
	}
	ws.waiting[b] &^= cohort
	if released != 0 {
		ws.sim.lastProgressCycle = ws.sim.metrics.Cycles
		if sink := ws.sim.cfg.Events; sink != nil {
			sink.Event(ws.releaseEvent(EvBarrierRelease, b, released))
		}
	}
}

// syncCheck releases warpsync once every live lane is blocked on it.
func (ws *warpState) syncCheck() {
	live := ws.liveMask()
	var syncing uint32
	for l, st := range ws.status {
		if st == laneSyncing {
			syncing |= 1 << l
		}
	}
	if live != 0 && syncing == live {
		ws.invalidate()
		ws.sim.lastProgressCycle = ws.sim.metrics.Cycles
		for m := syncing; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			ws.status[l] = laneRunning
			ws.pcs[l]++
		}
	}
}

// exitLane marks a lane done and clears its barrier participation. In
// strict mode leftover participation is an error (it means the compiler
// failed to place a CancelBarrier on some region exit).
func (ws *warpState) exitLane(l int) error {
	ws.invalidate()
	ws.status[l] = laneDone
	ws.sim.lastProgressCycle = ws.sim.metrics.Cycles
	bit := uint32(1) << l
	var leaked []int
	for b := range ws.masks {
		if ws.masks[b]&bit != 0 {
			leaked = append(leaked, b)
			ws.masks[b] &^= bit
			ws.releaseCheck(b)
		}
	}
	if ws.sim.cfg.Strict && len(leaked) > 0 {
		return fmt.Errorf("lane %d exited while participating in barriers %v (missing CancelBarrier)", l, leaked)
	}
	ws.syncCheck()
	// The exit shrinks the CTA's live-lane count, which may satisfy a
	// ctabar the remaining lanes are blocked on.
	ws.cta.laneExited(ws.sim)
	return nil
}
