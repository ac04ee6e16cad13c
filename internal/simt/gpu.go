package simt

import (
	"math/bits"
	"sync"

	"specrecon/internal/ir"
)

// GPU-scale execution: the GPU → SM → CTA → warp hierarchy, and the wave
// loop every launch runs on.
//
// Every launch is the same sequence: launch (simt.go) → runSM → runWave.
// A launch's CTAs are distributed round-robin over Config.SMs streaming
// multiprocessors — CTA c runs on SM c%SMs; a flat launch is the implicit
// CTA 0 on SM 0. Each SM is an independent machine — its own
// global-memory view, cache, metrics, issue budget and event sink — that
// runs its CTAs in waves, as many at a time as its occupancy limits allow
// (runSM); the warps of co-resident CTAs contend for the SM's cache. One
// loop steps warps (passes, driven by runWave): it takes a wave — the
// warps resident on the SM together — and gives it scheduling passes
// until every warp has retired. What a wave is, a set of CTAs or a single
// warp, is the one thing the launch shape decides (oneWarpWaves). A CTA
// owns a shared-memory segment (ir.Module.SharedWords words) and up to
// NumCTABarriers ctabar workgroup barriers scoped to its warps.
//
// Where the SMs run. A one-SM launch (every flat launch and every one-SM
// grid) runs on the root sim, over its own memory image: there is nothing
// to fork or merge. Only a multi-SM launch forks a sim per SM (runGrid).
//
// Determinism under sharding. The SMs of a multi-SM launch never share
// mutable state: each runs over a private copy-on-write view of the
// initial global memory (cow.go), which records the words it stores.
// After every SM retires, the final memory is the initial image
// overwritten by each SM's stored words in SM-index order, per-SM metrics
// are merged in SM order (counters add, the launch cycle count is the
// slowest SM's), and per-SM event streams are delivered in SM order (as
// they happen when the SMs run serially, from per-SM replay buffers when
// they run concurrently) — so a run sharded over any number of worker
// goroutines is byte-identical to the serial run. Words written by
// several SMs with disagreeing values are counted as
// Metrics.CrossSMConflicts, mirroring real GPUs' lack of
// inter-CTA write coherence within a launch: kernels must communicate
// across CTAs through disjoint addresses (and atomics are atomic only
// within an SM).

// Volta-scale hardware limits (GV100: 80 SMs, 64 warps and 2048
// threads per SM, 96 KiB shared memory per SM, 32 CTAs per SM, 16
// workgroup barriers per CTA).
const (
	// MaxSMs is the number of streaming multiprocessors on a full chip.
	MaxSMs = 80
	// MaxWarpsPerSM bounds the warps resident on one SM.
	MaxWarpsPerSM = 64
	// MaxCTAsPerSM bounds the CTAs co-resident on one SM.
	MaxCTAsPerSM = 32
	// MaxThreadsPerCTA bounds the threads of one CTA.
	MaxThreadsPerCTA = 1024
	// SharedMemWordsPerSM is the SM's shared memory in 64-bit words
	// (96 KiB); co-resident CTAs' segments must fit in it.
	SharedMemWordsPerSM = 96 * 1024 / 8
	// NumCTABarriers is the number of named ctabar workgroup barriers
	// available to one CTA.
	NumCTABarriers = ir.NumBarrierRegs
)

// ctaState is one CTA: a shared-memory segment, the workgroup-barrier
// arrival counters, and the warps executing its threads. A flat launch
// has a single implicit ctaState spanning the whole launch.
type ctaState struct {
	index  int // CTA index within the grid
	live   int // lanes that have not exited
	shared []uint64
	warps  []*warpState
	// arrived[b] counts lanes currently blocked at workgroup barrier b;
	// the barrier opens when every live lane of the CTA has arrived.
	arrived [NumCTABarriers]int32
}

// blockOnBar records that count lanes blocked on workgroup barrier b.
func (c *ctaState) blockOnBar(b, count int) { c.arrived[b] += int32(count) }

// barCheck opens workgroup barrier b once every live lane of the CTA
// has arrived, releasing the blocked lanes of every warp at once. The
// released lanes mostly belong to other warps than the one issuing, so
// it is each released warp's group table that is invalidated here,
// before that warp's lanes are stepped.
func (c *ctaState) barCheck(s *sim, b int) {
	if c.live == 0 || int(c.arrived[b]) < c.live {
		return
	}
	sink := s.cfg.Events
	for _, ws := range c.warps {
		var released uint32
		for l, st := range ws.status {
			if st == laneCTAWaiting && int(ws.waitBar[l]) == b {
				released |= 1 << l
			}
		}
		if released == 0 {
			continue
		}
		ws.invalidate()
		for m := released; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			ws.status[l] = laneRunning
			ws.pcs[l]++ // step past the ctabar
		}
		if sink != nil {
			sink.Event(ws.releaseEvent(EvCTABarRelease, b, released))
		}
	}
	c.arrived[b] = 0
	s.metrics.CTABarSyncs++
	s.lastProgressCycle = s.metrics.Cycles
}

// laneExited updates the CTA after a lane exit: a smaller live count
// may satisfy a workgroup barrier the remaining lanes are blocked on
// (a thread that returns never arrives, so the barrier waits only on
// the live ones — the progress model of a non-blocking __syncthreads).
func (c *ctaState) laneExited(s *sim) {
	c.live--
	for b := range c.arrived {
		if c.arrived[b] > 0 {
			c.barCheck(s, b)
		}
	}
}

// forkSM clones the launch template into SM i's private machine state:
// a private view of the initial global memory, its own cache, metrics,
// budgets and event sink, sharing the immutable module and decode
// tables. The memory view is copy-on-write — the template image is
// shared read-only and pages materialize on first store — so forking
// cost scales with the SM's write set, not the image size.
func (s *sim) forkSM(i int, sink EventSink, samples SampleSink) *sim {
	sm := &sim{
		mod:         s.mod,
		cfg:         s.cfg,
		decodeTable: s.decodeTable,
		ipdom:       s.ipdom,
		metrics:     newMetrics(s.decodeTable),
		entryPC:     s.entryPC,
		nbar:        s.nbar,
		nregs:       s.nregs,
		nfregs:      s.nfregs,
		smIndex:     int32(i),
		memLen:      s.memLen,
		cow:         newCowMem(s.mem),
		cache:       newCache(s.cfg.Cache.withDefaults()),

		afterIssue: s.afterIssue,
	}
	sm.cfg.Events = sink
	sm.sampleSink = samples
	sm.wallDeadline = s.wallDeadline
	return sm
}

// ctas is the launch's CTA count: Grid, or a flat launch's one CTA.
func (cfg *Config) ctas() int { return max(cfg.Grid, 1) }

// warpsPerCTA is the warp count of one CTA, a partial last warp included.
func (cfg *Config) warpsPerCTA() int { return (cfg.CTASize + ir.WarpWidth - 1) / ir.WarpWidth }

// oneWarpWaves is the wave-size rule: a greedy flat launch without
// InterleaveWarps runs its warps to completion one at a time, each a wave
// of its own (with no occupancy to sample); every other launch makes a
// wave of each occupancy-limited set of an SM's CTAs.
func (cfg *Config) oneWarpWaves() bool {
	return cfg.Grid == 0 && !cfg.InterleaveWarps && cfg.Sched == SchedGreedyConverge
}

// occupancy returns how many CTAs fit on one SM at once, limited by the
// CTA slot count, the resident-warp budget and the shared-memory
// capacity.
func (s *sim) occupancy() int {
	occ := MaxCTAsPerSM
	if w := MaxWarpsPerSM / s.cfg.warpsPerCTA(); w < occ {
		occ = w
	}
	if sw := s.mod.SharedWords; sw > 0 {
		if c := SharedMemWordsPerSM / sw; c < occ {
			occ = c
		}
	}
	if occ < 1 {
		occ = 1
	}
	return occ
}

// smReplay holds one SM's event and sample streams — a copy of each
// record, in a Log — until every SM of a Workers > 1 launch has retired;
// replaying the SMs' logs in SM order is what makes the delivered streams
// deterministic there (see Config.Events for the rule).
type smReplay struct {
	events  Log[Event]
	samples Log[Sample]
}

func (r *smReplay) Event(ev *Event) { r.events.Append(*ev) }
func (r *smReplay) Sample(s Sample) { r.samples.Append(s) }

// smSinks picks the sinks SM i reports to: the launch's own when the SMs
// run one after another (replay nil) — forEachSM with Workers <= 1 runs
// SM 0..n-1 to completion in index order, so handing Config.Events and
// Config.Samples to each SM in turn is already SM-order delivery — and SM
// i's replay logs when they run concurrently.
func (s *sim) smSinks(i int, replay []smReplay) (events EventSink, samples SampleSink) {
	events = s.cfg.Events
	if s.cfg.samplerEnabled() && !s.cfg.oneWarpWaves() {
		samples = s.cfg.Samples
	}
	if replay != nil {
		r := &replay[i]
		if events != nil {
			events = r
		}
		if samples != nil {
			samples = r
		}
	}
	return events, samples
}

// runGrid executes a multi-SM launch: fork one sim per SM, run the SMs
// (serially or over Workers goroutines), then merge memory and metrics
// into s in SM order: stored global-memory words overwrite the initial
// image in ascending address order (words several SMs wrote with
// disagreeing values count as cross-SM conflicts), and metrics merge with
// Cycles = max over SMs. Events and samples are delivered in SM order
// too: in place on a serial launch, from the replay logs after a
// concurrent one.
func (s *sim) runGrid(shared [][]uint64) error {
	cfg := s.cfg
	var replay []smReplay
	if cfg.Workers > 1 && (cfg.Events != nil || cfg.samplerEnabled()) {
		replay = make([]smReplay, cfg.SMs)
	}
	sms := make([]*sim, cfg.SMs)
	for i := range sms {
		sink, samples := s.smSinks(i, replay)
		sms[i] = s.forkSM(i, sink, samples)
	}

	err := forEachSM(cfg.Workers, cfg.SMs, func(i int) error {
		return sms[i].runSM(shared)
	})
	// Every SM ran to completion even if one errored, so observers see
	// the same deterministic prefix on either delivery path.
	if cfg.Events != nil {
		for i := range replay {
			replay[i].events.Each(cfg.Events.Event)
		}
	}
	for i := range replay {
		replay[i].samples.Each(func(smp *Sample) { cfg.Samples.Sample(*smp) })
	}
	if err != nil {
		return err
	}
	written := make([]uint64, (len(s.mem)+63)/64)
	for _, sm := range sms {
		s.metrics.merge(&sm.metrics)
		sm.cow.mergeInto(s.mem, written, &s.metrics)
	}
	return nil
}

// runSM runs this SM's CTAs — smIndex, smIndex+SMs, … — in
// occupancy-limited waves, each handed to runWave whole or, under
// oneWarpWaves, one warp at a time; shared collects each CTA's shared
// segment (SMs write disjoint CTA indices).
func (s *sim) runSM(shared [][]uint64) error {
	occ := s.occupancy()
	for c := int(s.smIndex); c < s.cfg.ctas(); {
		var wave []*warpState
		wave, c = s.admit(c, occ, shared)
		size := len(wave)
		if s.cfg.oneWarpWaves() {
			size = 1
		}
		for ; len(wave) > 0; wave = wave[size:] {
			if err := s.runWave(wave[:size]); err != nil {
				return err
			}
		}
	}
	return nil
}

// admit makes a wave resident: CTAs c, c+SMs, … — at most occ of them —
// with their warps, taken from the arena. The wave is the warps it took,
// warpPool[first:poolWarp]; next is the first CTA left for a later wave.
func (s *sim) admit(c, occ int, shared [][]uint64) (wave []*warpState, next int) {
	first := s.poolWarp
	for n := 0; n < occ && c < s.cfg.ctas(); n, c = n+1, c+s.cfg.SMs {
		cta := s.newCTA(c)
		if shared != nil {
			shared[c] = cta.shared
		}
		for wi := 0; wi < s.cfg.warpsPerCTA(); wi++ {
			s.newCTAWarp(cta, wi)
		}
	}
	return s.warpPool[first:s.poolWarp], c
}

// runWave runs one wave — the warps resident on the machine together —
// to retirement: it gives them pass after pass until one issues nothing,
// which means every warp has retired or, if a live one remains, that the
// wave is deadlocked. A warp stalled at a ctabar is only skipped while
// some warp still issues, since any of them may be the one that opens
// it.
func (s *sim) runWave(warps []*warpState) error {
	if s.cfg.Sched != SchedGreedyConverge {
		s.schedInit(warps)
	}
	if _, err := s.passes(warps, -1); err != nil {
		return err
	}
	// The last pass tried every warp not done, and tryStep marks a warp
	// done exactly when none of its lanes is live: one left is stalled,
	// and its diagnostic (blocked lanes, barrier snapshots) reports the
	// deadlock.
	for _, ws := range warps {
		if !ws.done {
			return s.warpErr(ws, ws.deadlockError())
		}
	}
	return nil
}

// passes is the one loop that steps warps. A pass is one scheduling step
// of the wave: every eligible warp issues once under greedy-converge,
// one warp chosen by the policy otherwise (schedSlot); it ends with the
// occupancy sampler's hook and, on policy slots, the starvation
// monitor's periodic scan. The loop stops after a pass that issued
// nothing, or after n passes when n is positive (tests step a wave one
// pass at a time), and returns how many warps issued in the last pass.
func (s *sim) passes(warps []*warpState, n int) (int, error) {
	greedy := s.cfg.Sched == SchedGreedyConverge
	for {
		issued := 0
		if greedy {
			for _, ws := range warps {
				ok, err := ws.tryStep()
				if err != nil {
					return 0, s.warpErr(ws, err)
				}
				if ok {
					issued++
				}
			}
		} else {
			ok, err := s.schedSlot(warps)
			if err != nil {
				return 0, err
			}
			if ok {
				issued = 1
			}
		}
		s.samplePass(warps, issued)
		if !greedy && issued > 0 && s.cfg.StarveLimit > 0 {
			if s.slot++; s.slot%starveCheckStride == 0 {
				if err := s.starveCheck(warps); err != nil {
					return 0, err
				}
			}
		}
		if n--; issued == 0 || n == 0 {
			return issued, nil
		}
	}
}

// forEachSM runs fn(0..n-1) over at most workers goroutines. Jobs are
// independent; every job runs to completion — even after another job
// errors, and even in the serial case — and the lowest-index error is
// returned, so both the error and the delivered event and sample
// streams are identical for every worker count.
func forEachSM(workers, n int, fn func(i int) error) error {
	if workers <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
