package simt

import (
	"fmt"

	"specrecon/internal/ir"
)

// Machine is a launch arena bound to one module: one simulator instance
// whose warp scratch, decode side tables, CTA state, per-SM forks,
// metrics tables, memory image and views and (for Workers > 1 launches
// with a sink attached) replay logs stay alive across launches. Run
// already recycles the warps, CTAs, tables and cache of finished launches
// of any module; a Machine also keeps what Run rebuilds or hands to its
// Result — the decode table, the memory image, the SM forks — so every
// launch after the first rewinds the arena in place, with near-zero
// allocations, and produces results byte-identical to a fresh Run
// (pinned by TestMachineMatchesFreshRun). The benchmark's traced split
// of a launch into construction and issue loop is its one caller outside
// the tests.
//
// A Machine is bound to a launch shape: the kernel, thread/grid
// geometry, SM count, scheduling policy, divergence model and cache
// configuration of the Config it was built with, plus the derived
// memory-image size.
// Per-launch inputs — Seed, Memory contents, issue and wall budgets,
// Strict, SkipReleaseN, Workers, event sinks, the scheduler policy
// (Sched, SchedSeed, StarveLimit) and InterleaveWarps — may differ freely
// between runs. Run rejects a shape-incompatible Config rather than
// silently rebuilding.
//
// Result buffers alias the arena: Result.Memory and Result.Shared are
// valid until the next Run on the same Machine. Copy them out to keep
// them. A Machine is not safe for concurrent Runs (each Run may still
// shard its SMs over Config.Workers goroutines internally).
type Machine struct {
	s *sim
}

// NewMachine validates m and cfg exactly like Run and builds the
// reusable arena. The heavy launch-invariant state (decode side tables,
// PC metadata, memory template) is constructed here, once.
func NewMachine(m *ir.Module, cfg Config) (*Machine, error) {
	s, err := newSim(m, cfg)
	if err != nil {
		return nil, err
	}
	return &Machine{s: s}, nil
}

// Run launches the machine's kernel under cfg, reusing the arena. cfg
// must be shape-compatible with the Config the Machine was built with;
// the per-launch inputs listed on Machine may vary. The returned Result's
// buffers are valid until the next Run.
func (mc *Machine) Run(cfg Config) (*Result, error) {
	s := mc.s
	cfg, memWords, err := normalizeConfig(s.mod, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.compatible(cfg, memWords); err != nil {
		return nil, err
	}
	s.resetForLaunch(cfg)
	return s.launch()
}

// compatible checks that a normalized cfg matches the arena's launch
// shape. Everything the arena's pooled state was sized or keyed by must
// be unchanged.
func (s *sim) compatible(cfg Config, memWords int) error {
	base := s.cfg
	switch {
	case cfg.Kernel != base.Kernel:
		return fmt.Errorf("simt: machine built for kernel %q, got %q", base.Kernel, cfg.Kernel)
	case cfg.Threads != base.Threads || cfg.Grid != base.Grid || cfg.CTASize != base.CTASize:
		return fmt.Errorf("simt: machine built for threads=%d grid=%d ctasize=%d, got threads=%d grid=%d ctasize=%d",
			base.Threads, base.Grid, base.CTASize, cfg.Threads, cfg.Grid, cfg.CTASize)
	case cfg.SMs != base.SMs:
		return fmt.Errorf("simt: machine built for %d SMs, got %d", base.SMs, cfg.SMs)
	case cfg.Policy != base.Policy:
		return fmt.Errorf("simt: machine built for policy %v, got %v", base.Policy, cfg.Policy)
	case cfg.Model != base.Model:
		return fmt.Errorf("simt: machine built for model %v, got %v", base.Model, cfg.Model)
	case cfg.Cache.withDefaults() != base.Cache.withDefaults():
		return fmt.Errorf("simt: machine cache configuration mismatch")
	case memWords != s.memLen:
		return fmt.Errorf("simt: machine built for %d memory words, got %d", s.memLen, memWords)
	}
	return nil
}
