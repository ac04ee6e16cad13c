package simt

import (
	"fmt"

	"specrecon/internal/ir"
)

// Metrics aggregates the launch-wide counters. SIMT efficiency follows
// the paper's definition: the average percentage of active threads per
// warp per issued instruction.
type Metrics struct {
	Threads int
	Warps   int
	// CTAs and SMs record the launch shape: the number of CTAs in the
	// grid and the number of SMs it ran on. Flat launches report one of
	// each (the whole launch acts as a single CTA on a single SM).
	CTAs int
	SMs  int

	// Issues is the number of warp instructions issued; ActiveLaneSum
	// is the total of active lanes over those issues.
	Issues        int64
	ActiveLaneSum int64

	// Cycles is the modeled runtime: the sum of per-issue costs
	// (opcode latency plus memory transaction costs). On a multi-SM
	// launch the SMs run concurrently, so Cycles is the slowest SM's
	// cycle count and TotalSMCycles the sum over SMs (the aggregate
	// machine work).
	Cycles        int64
	TotalSMCycles int64

	MemTransactions int64
	CacheHits       int64
	CacheMisses     int64

	// SharedAccesses counts per-lane accesses to CTA shared memory
	// (which bypasses the global-memory coalescer and cache).
	SharedAccesses int64

	// CrossSMConflicts counts global-memory words written by more than
	// one SM with disagreeing final values. SMs execute over private
	// copies of global memory merged in SM order, mirroring real GPUs'
	// lack of inter-CTA write coherence within a launch; a nonzero count
	// flags a kernel whose CTAs communicate through overlapping
	// addresses.
	CrossSMConflicts int64

	// BarrierWaits counts lane-block events at wait instructions;
	// BarrierReleases counts lane-release events.
	BarrierWaits    int64
	BarrierReleases int64

	// CTABarWaits counts lane-block events at ctabar workgroup
	// barriers; CTABarSyncs counts workgroup-barrier releases (one per
	// barrier opening, not per lane).
	CTABarWaits int64
	CTABarSyncs int64

	// OpClassIssues breaks issued instructions down by class: "alu",
	// "mem", "barrier", "control", "special". It is materialized from
	// opClassCounts once at the end of a run.
	OpClassIssues map[string]int64

	// opClassCounts is the hot-path accumulator behind OpClassIssues: a
	// fixed array indexed by the decode-time OpClassID, so the issue
	// loop pays an array increment instead of a string-keyed map update.
	opClassCounts [numOpClasses]int64

	// blockVisits accumulates active lanes entering each block, indexed
	// by the decode table's dense block id (blkBase[fn]+blk; blkBase is
	// the launch's shared, immutable decodeTable.blkBase). It is sized
	// from the module when the sim is built, so the issue loop pays one
	// indexed add. Used as the execution profile for the profile-guided
	// cost model and by tests.
	blockVisits []int64
	blkBase     []int32

	// finalized guards finalize against double invocation, which would
	// double-count the materialized OpClassIssues map.
	finalized bool
}

// OpClassID is the dense index of an instruction's reporting class,
// precomputed at decode time so the issue loop increments a fixed array.
type OpClassID uint8

const (
	opClassALU OpClassID = iota
	opClassMem
	opClassBarrier
	opClassControl
	opClassSpecial
	numOpClasses
)

var opClassNames = [numOpClasses]string{"alu", "mem", "barrier", "control", "special"}

// OpClassOf maps an opcode to its reporting class index.
func OpClassOf(op ir.Opcode) OpClassID {
	switch {
	case op.IsBarrierOp() || op == ir.OpWarpSync || op.IsCTABarrier():
		return opClassBarrier
	case op.IsMemory() || op.IsSharedMemory():
		return opClassMem
	case op == ir.OpBr || op == ir.OpCBr || op == ir.OpCall || op == ir.OpRet || op == ir.OpExit:
		return opClassControl
	case op.IsDivergenceSource() || op == ir.OpNumThreads || op == ir.OpCTAId || op == ir.OpCTASize:
		return opClassSpecial
	default:
		return opClassALU
	}
}

// merge folds one SM's metrics into the launch aggregate. Counters are
// additive; Cycles takes the max (SMs run concurrently, so the launch
// finishes with its slowest SM) while the per-SM cycle sum accumulates
// into TotalSMCycles. Call before finalize — merging materialized maps
// would double-count.
func (m *Metrics) merge(o *Metrics) {
	m.Issues += o.Issues
	m.ActiveLaneSum += o.ActiveLaneSum
	if o.Cycles > m.Cycles {
		m.Cycles = o.Cycles
	}
	m.TotalSMCycles += o.Cycles
	m.MemTransactions += o.MemTransactions
	m.CacheHits += o.CacheHits
	m.CacheMisses += o.CacheMisses
	m.SharedAccesses += o.SharedAccesses
	m.BarrierWaits += o.BarrierWaits
	m.BarrierReleases += o.BarrierReleases
	m.CTABarWaits += o.CTABarWaits
	m.CTABarSyncs += o.CTABarSyncs
	for c, n := range o.opClassCounts {
		m.opClassCounts[c] += n
	}
	for id, lanes := range o.blockVisits {
		m.blockVisits[id] += lanes
	}
}

// detach replaces the slice- and map-backed profile state with private
// deep copies. Result.Metrics is a struct copy of the arena's live
// accumulator; without detaching, its blockVisits table and (after
// finalize) OpClassIssues map stay aliased to the accumulator, so a
// later Machine relaunch — which resets and re-merges them in place —
// would silently rewrite the escaped Result's profile.
// Result.PerSM stays arena-aliased by documented contract (valid until
// the next Run); only the launch-wide Metrics copy detaches.
func (m *Metrics) detach() {
	m.blockVisits = append([]int64(nil), m.blockVisits...)
	if m.OpClassIssues != nil {
		oci := make(map[string]int64, len(m.OpClassIssues))
		for k, v := range m.OpClassIssues {
			oci[k] = v
		}
		m.OpClassIssues = oci
	}
}

// reset zeroes every counter while keeping the storage behind
// blockVisits and OpClassIssues alive, so a reused launch arena records
// a fresh run without reallocating the profile tables.
func (m *Metrics) reset() {
	bv, base := m.blockVisits, m.blkBase
	oci := m.OpClassIssues
	*m = Metrics{}
	clear(bv)
	m.blockVisits, m.blkBase = bv, base
	for k := range oci {
		delete(oci, k)
	}
	m.OpClassIssues = oci
}

// finalize materializes the exported views of the hot-path accumulators.
// Run calls it once after the last warp retires; repeated calls are
// no-ops so a second finalize cannot double-count OpClassIssues.
func (m *Metrics) finalize() {
	if m.finalized {
		return
	}
	m.finalized = true
	if m.OpClassIssues == nil {
		m.OpClassIssues = make(map[string]int64, numOpClasses)
	}
	for c, n := range m.opClassCounts {
		if n != 0 {
			m.OpClassIssues[opClassNames[c]] += n
		}
	}
}

// SIMTEfficiency returns mean active lanes per issue divided by the warp
// width, in [0,1].
func (m *Metrics) SIMTEfficiency() float64 {
	if m.Issues == 0 {
		return 0
	}
	return float64(m.ActiveLaneSum) / float64(m.Issues) / float64(ir.WarpWidth)
}

// BlockVisits returns the accumulated active-lane count for the given
// function and block index.
func (m *Metrics) BlockVisits(fnIdx, blockIdx int) int64 {
	if fnIdx < 0 || fnIdx+1 >= len(m.blkBase) || blockIdx < 0 {
		return 0
	}
	id := int(m.blkBase[fnIdx]) + blockIdx
	if id >= int(m.blkBase[fnIdx+1]) {
		return 0
	}
	return m.blockVisits[id]
}

// newMetrics returns the zero Metrics of a launch over d's module, with
// the block-visit table sized.
func newMetrics(d *decodeTable) Metrics {
	return Metrics{blockVisits: make([]int64, len(d.blkPC)), blkBase: d.blkBase}
}

// String renders the headline counters.
func (m *Metrics) String() string {
	return fmt.Sprintf("issues=%d cycles=%d simt_eff=%.1f%% mem_tx=%d hit=%d miss=%d",
		m.Issues, m.Cycles, 100*m.SIMTEfficiency(), m.MemTransactions, m.CacheHits, m.CacheMisses)
}
