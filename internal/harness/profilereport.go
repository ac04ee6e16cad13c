package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"specrecon/internal/core"
	"specrecon/internal/ir"
	"specrecon/internal/obs"
	"specrecon/internal/simt"
	"specrecon/internal/workloads"
)

// WorkloadProfile holds one annotated workload's per-PC profiles for the
// baseline and speculative-reconvergence builds.
type WorkloadProfile struct {
	Name       string
	Base, Spec *obs.Profile
}

// runProfiled compiles inst with opts and runs it with an attached
// profiler.
func runProfiled(inst *workloads.Instance, opts core.Options) (p *obs.Profile, err error) {
	_, _, err = launch(inst, inst.Module, opts, false, func(m *ir.Module, runCfg simt.Config) simt.Config {
		// The profiler indexes its counters by the compiled module's PCs.
		p = obs.NewProfile(m)
		runCfg.Events = p
		return runCfg
	})
	return p, err
}

// CollectProfiles profiles every annotated workload in both builds on
// the worker pool. Profiles are independent per job, so the pool
// parallelism (0 = GOMAXPROCS) does not affect the result.
func CollectProfiles(cfg workloads.BuildConfig, parallelism int) ([]WorkloadProfile, error) {
	ws := workloads.Annotated()
	return collect("profiles", parallelism, len(ws), func(i int) (WorkloadProfile, error) {
		inst := ws[i].Build(cfg)
		base, err := runProfiled(inst, core.BaselineOptions())
		if err != nil {
			return WorkloadProfile{}, err
		}
		spec, err := runProfiled(inst, core.SpecReconOptions())
		return WorkloadProfile{Name: ws[i].Name, Base: base, Spec: spec}, err
	})
}

// WriteProfileSection renders the per-workload profile section of the
// markdown report: headline counters for both builds, the optimized
// build's hottest instructions, and the block-level movers between the
// builds.
func WriteProfileSection(out io.Writer, profiles []WorkloadProfile, topN int) error {
	fmt.Fprintln(out, "## Per-workload profiles")
	fmt.Fprintln(out)
	for _, wp := range profiles {
		fmt.Fprintf(out, "### %s\n\n", wp.Name)
		b, s := wp.Base.Summary(), wp.Spec.Summary()
		fmt.Fprintln(out, "| build | issues | cycles | simt eff | branch eff | mem stall | barrier stall |")
		fmt.Fprintln(out, "|-------|-------:|-------:|---------:|-----------:|----------:|--------------:|")
		fmt.Fprintf(out, "| baseline | %d | %d | %.1f%% | %.1f%% | %d | %d |\n",
			b.Issues, b.Cycles, 100*b.SIMTEfficiency, 100*b.BranchEfficiency, b.MemStallCycles, b.BarStallCycles)
		fmt.Fprintf(out, "| spec | %d | %d | %.1f%% | %.1f%% | %d | %d |\n\n",
			s.Issues, s.Cycles, 100*s.SIMTEfficiency, 100*s.BranchEfficiency, s.MemStallCycles, s.BarStallCycles)

		fmt.Fprintf(out, "hottest instructions (spec build, top %d):\n\n", topN)
		fmt.Fprintln(out, "| location | op | issues | avg lanes | cycles | mem stall | barrier stall |")
		fmt.Fprintln(out, "|----------|----|-------:|----------:|-------:|----------:|--------------:|")
		for _, r := range wp.Spec.Top(topN) {
			fmt.Fprintf(out, "| %s | %s | %d | %.1f | %d | %d | %d |\n",
				r.Location(), r.Op, r.Issues, r.AvgLanes(), r.Cycles, r.MemStall, r.BarStall)
		}
		fmt.Fprintln(out)

		fmt.Fprintf(out, "block-level movers (top %d by |Δcycles|):\n\n", topN)
		if err := obs.WriteDiffMarkdown(out, wp.Base, wp.Spec, topN); err != nil {
			return err
		}
	}
	return nil
}

// DumpTraces runs every annotated workload in both builds with a trace
// recorder attached and writes <dir>/<name>-{baseline,spec}.trace.json,
// each openable in ui.perfetto.dev. It returns the written paths.
func DumpTraces(dir string, cfg workloads.BuildConfig, parallelism int) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ws := workloads.Annotated()
	paths := make([][]string, len(ws))
	err := forEach("traces", parallelism, len(ws), func(i int) error {
		inst := ws[i].Build(cfg)
		for _, build := range []struct {
			tag  string
			opts core.Options
		}{
			{"baseline", core.BaselineOptions()},
			{"spec", core.SpecReconOptions()},
		} {
			rec := obs.NewTraceRecorder()
			_, _, err := launch(inst, inst.Module, build.opts, false, func(_ *ir.Module, runCfg simt.Config) simt.Config {
				runCfg.Events = rec
				return runCfg
			})
			if err != nil {
				return err
			}
			path := filepath.Join(dir, fmt.Sprintf("%s-%s.trace.json", ws[i].Name, build.tag))
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := rec.WriteTrace(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			paths[i] = append(paths[i], path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var flat []string
	for _, p := range paths {
		flat = append(flat, p...)
	}
	return flat, nil
}
