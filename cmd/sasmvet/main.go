// Command sasmvet is the static vetter for .sasm modules: it runs the
// barrier-state abstract interpreter and the rest of the static
// analyzer (internal/analyze) over source files, the bundled paper
// workloads, or a generated synthetic corpus, and reports unified
// diagnostics (stable SRxxxx codes) as text or SARIF 2.1.0.
//
// Usage:
//
//	sasmvet [flags] [file.sasm | glob ...]
//
// With -fix (or -fix-dry-run), the machine-applicable edits attached to
// the diagnostics are applied through the internal/repair fixpoint
// engine: the reported diagnostics (text and SARIF, including SARIF
// fixes objects) are the PRE-repair findings, while the exit status is
// computed from what remains AFTER repair — a fully-repaired module
// exits 0. -fix rewrites raw-mode file inputs in place; -fix-dry-run
// never writes; -fix-diff adds a line diff of each repair. In -compiled
// mode the repair applies to the compiled artifact (the source file is
// never rewritten), and -inject can plant a deterministic fault plan
// first, which is how `make repair-smoke` distinguishes a repaired
// build (exit 0) from an unrepairable one that must fall back (exit 1).
//
// Exit status:
//
//	0  no diagnostic at or above -fail-on severity (post-repair with -fix*)
//	1  at least one diagnostic at or above -fail-on severity
//	2  usage or load errors
//
// The -fail-on comparison follows the SR code table ordering
// (note < warning < error); a diagnostic carrying a known SRxxxx code
// is compared by the table's severity for that code, so an emitter
// disagreeing with the registry cannot skew the exit status.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"specrecon/internal/analyze"
	"specrecon/internal/cli"
	"specrecon/internal/core"
	"specrecon/internal/corpus"
	"specrecon/internal/ir"
	"specrecon/internal/repair"
	"specrecon/internal/workloads"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) (code int) {
	app := cli.New("sasmvet", stdout, stderr)
	var (
		vetWorkloads = app.Bool("workloads", false, "vet every bundled paper workload")
		corpusN      = app.Int("corpus", 0, "vet a synthetic corpus of this many generated kernels")
		corpusSeed   = app.Uint64("corpus-seed", 42, "seed for -corpus generation")
		compiled     = app.Bool("compiled", false, "vet the compiled module (full speculative pipeline with barrier provenance) instead of the raw input")
		sarifOut     = app.String("sarif", "", "write a SARIF 2.1.0 report to this file (\"-\" for stdout)")
		failOn       = app.String("fail-on", "error", "exit 1 when a diagnostic of at least this severity exists: note | warning | error")
		effFlag      = app.Bool("eff", false, "print the static SIMT-efficiency estimate per kernel")
		effBelow     = app.Float64("eff-below", 0, "note kernels with static efficiency below this threshold (0 disables)")
		quiet        = app.Bool("q", false, "suppress per-diagnostic text output (summary and exit code only)")
		fix          = app.Bool("fix", false, "apply the diagnostics' machine edits to fixpoint (internal/repair); raw-mode file inputs are rewritten in place")
		fixDryRun    = app.Bool("fix-dry-run", false, "like -fix but never writes: report the repairs and exit on the post-repair diagnostics")
		fixDiff      = app.Bool("fix-diff", false, "with -fix/-fix-dry-run, print a line diff of each repaired module (implies -fix-dry-run when given alone)")
		injectSpec   = app.String("inject", "", "with -compiled, plant this fault plan (core.ParseFaultPlan syntax, e.g. drop-cancel@1) before vetting")
	)
	app.Usage = func() {
		fmt.Fprintf(stderr, `usage: sasmvet [flags] [file.sasm | glob ...]

Exit status:
  0  no diagnostic at or above -fail-on severity (post-repair with -fix*)
  1  at least one diagnostic at or above -fail-on severity
  2  usage or load errors

Severities order note < warning < error (the SR code table ordering);
a diagnostic with a known SRxxxx code is compared by the table's
severity for that code.

Flags:
`)
		app.PrintDefaults()
	}
	if code, done := app.Parse(args); done {
		return code
	}
	defer app.Close(&code)

	failSev, err := analyze.ParseSeverity(*failOn)
	if err != nil {
		return app.Fail(cli.Usage, err)
	}
	if *effBelow < 0 || *effBelow > 1 {
		return app.Fail(cli.Usage, fmt.Errorf("-eff-below %g: want a fraction in [0, 1]", *effBelow))
	}
	fixMode := *fix || *fixDryRun || *fixDiff
	var injectPlan core.FaultPlan
	if *injectSpec != "" {
		if !*compiled {
			return app.Fail(cli.Usage, fmt.Errorf("-inject requires -compiled (faults target the compiled barrier layout)"))
		}
		if injectPlan, err = core.ParseFaultPlan(*injectSpec); err != nil {
			return app.Fail(cli.Usage, fmt.Errorf("-inject: %w", err))
		}
	}

	mods, err := collectModules(app.Args(), *vetWorkloads, *corpusN, *corpusSeed)
	if err != nil {
		return app.Fail(cli.Usage, err)
	}
	if len(mods) == 0 {
		app.Fail(cli.Usage, fmt.Errorf("nothing to vet (pass .sasm files, -workloads, or -corpus N)"))
		app.Usage()
		return cli.Usage
	}
	// In fix mode `all` holds the pre-repair findings (what the report
	// and SARIF show) while `post` drives the exit status.
	var all, post []analyze.Diagnostic
	effs := map[string]float64{}
	editsApplied := 0
	for _, vm := range mods {
		vr, err := vet(vm, *compiled, *effBelow, fixMode, injectPlan)
		if err != nil {
			return app.Fail(cli.Usage, fmt.Errorf("%s: %w", vm.label, err))
		}
		for _, d := range vr.diags {
			if d.Fn == "" {
				d.Fn = vm.label
			}
			all = append(all, d)
			if !*quiet {
				fmt.Fprintf(stdout, "%s: %s\n", d.Severity, d)
			}
		}
		for _, d := range vr.post {
			if d.Fn == "" {
				d.Fn = vm.label
			}
			post = append(post, d)
		}
		for fn, e := range vr.eff {
			effs[vm.label+"/"+fn] = e
		}
		if vr.report == nil {
			continue
		}
		editsApplied += len(vr.report.Edits)
		if !*quiet && len(vr.report.Edits) > 0 {
			fmt.Fprintf(stdout, "sasmvet: %s: %s\n", vm.label, vr.report.Summary())
		}
		if *fixDiff && len(vr.report.Edits) > 0 {
			if vr.oldSrc != "" {
				printDiff(stdout, vm.label, vr.oldSrc, vr.newSrc)
			} else {
				// Compiled artifacts have no source text to diff; list
				// the applied edits instead.
				for _, e := range vr.report.Edits {
					fmt.Fprintf(stdout, "  %s\n", e.Edit)
				}
			}
		}
		if *fix && vm.path != "" && len(vr.report.Edits) > 0 && vr.newSrc != "" {
			if err := os.WriteFile(vm.path, []byte(vr.newSrc), 0o644); err != nil {
				return app.Fail(cli.Usage, err)
			}
			fmt.Fprintf(stdout, "sasmvet: %s: rewrote with %d edit(s)\n", vm.path, len(vr.report.Edits))
		}
	}
	// The -fail-on comparison follows the SR code table: a diagnostic
	// with a known code is judged by the registry's severity for it.
	normalizeSeverity(all)
	normalizeSeverity(post)

	if *effFlag {
		names := make([]string, 0, len(effs))
		for n := range effs {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool {
			if effs[names[i]] != effs[names[j]] {
				return effs[names[i]] < effs[names[j]]
			}
			return names[i] < names[j]
		})
		for _, n := range names {
			fmt.Fprintf(stdout, "eff %5.1f%%  %s\n", effs[n]*100, n)
		}
	}

	if *sarifOut != "" {
		err := cli.WriteTo(*sarifOut, stdout, func(w io.Writer) error { return analyze.WriteSARIF(w, "sasmvet", all) })
		if err != nil {
			return app.Fail(cli.Usage, err)
		}
	}

	var errors, warnings, notes int
	for _, d := range all {
		switch d.Severity {
		case analyze.SeverityError:
			errors++
		case analyze.SeverityWarning:
			warnings++
		default:
			notes++
		}
	}
	if fixMode {
		postErrs := len(analyze.Filter(post, analyze.SeverityError))
		fmt.Fprintf(stdout, "sasmvet: %d module(s): %d error(s), %d warning(s), %d note(s); %d edit(s) applied, %d error(s) remain\n",
			len(mods), errors, warnings, notes, editsApplied, postErrs)
	} else {
		fmt.Fprintf(stdout, "sasmvet: %d module(s): %d error(s), %d warning(s), %d note(s)\n",
			len(mods), errors, warnings, notes)
	}

	if len(analyze.Filter(post, failSev)) > 0 {
		return cli.Fail
	}
	return cli.OK
}

// normalizeSeverity aligns each diagnostic's severity with the SR code
// table, so the -fail-on comparison and the summary counts follow the
// table's ordering even for diagnostics whose emitter disagreed with
// the registry. Codeless (legacy free-form) diagnostics keep whatever
// severity they carry.
func normalizeSeverity(diags []analyze.Diagnostic) {
	for i := range diags {
		if diags[i].Code != "" {
			diags[i].Severity = analyze.InfoFor(diags[i].Code).Severity
		}
	}
}

// printDiff prints a minimal LCS line diff between the module text
// before and after repair.
func printDiff(out io.Writer, label, oldSrc, newSrc string) {
	if oldSrc == newSrc {
		return
	}
	a := strings.Split(oldSrc, "\n")
	b := strings.Split(newSrc, "\n")
	n, m := len(a), len(b)
	lcs := make([][]int, n+1)
	for i := range lcs {
		lcs[i] = make([]int, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	fmt.Fprintf(out, "--- %s\n+++ %s (repaired)\n", label, label)
	i, j := 0, 0
	for i < n && j < m {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case lcs[i+1][j] >= lcs[i][j+1]:
			fmt.Fprintf(out, "-%s\n", a[i])
			i++
		default:
			fmt.Fprintf(out, "+%s\n", b[j])
			j++
		}
	}
	for ; i < n; i++ {
		fmt.Fprintf(out, "-%s\n", a[i])
	}
	for ; j < m; j++ {
		fmt.Fprintf(out, "+%s\n", b[j])
	}
}

// vetModule is one unit of work: a module plus its display label.
type vetModule struct {
	label string
	mod   *ir.Module
	// path is the source file the module was loaded from; empty for
	// workload/corpus modules, which -fix can therefore never rewrite.
	path string
	// opts are the compile options used with -compiled; raw vetting
	// ignores them.
	opts core.Options
}

func collectModules(args []string, vetWorkloads bool, corpusN int, corpusSeed uint64) ([]vetModule, error) {
	var out []vetModule
	for _, arg := range args {
		paths := []string{arg}
		if strings.ContainsAny(arg, "*?[") {
			matches, err := filepath.Glob(arg)
			if err != nil {
				return nil, fmt.Errorf("bad glob %q: %v", arg, err)
			}
			if len(matches) == 0 {
				return nil, fmt.Errorf("glob %q matched nothing", arg)
			}
			sort.Strings(matches)
			paths = matches
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			mod, err := ir.Parse(string(src))
			if err != nil {
				return nil, fmt.Errorf("%s: %v", path, err)
			}
			out = append(out, vetModule{label: path, mod: mod, path: path, opts: core.SpecReconOptions()})
		}
	}
	if vetWorkloads {
		for _, w := range workloads.All() {
			inst := w.Build(workloads.BuildConfig{})
			opts := core.BaselineOptions()
			if w.Annotated {
				opts = core.SpecReconOptions()
			}
			out = append(out, vetModule{label: w.Name, mod: inst.Module, opts: opts})
		}
	}
	if corpusN > 0 {
		for _, app := range corpus.Generate(corpusN, corpusSeed) {
			out = append(out, vetModule{label: app.Name, mod: app.Module, opts: core.SpecReconOptions()})
		}
	}
	return out, nil
}

// vetResult is one module's vetting outcome.
type vetResult struct {
	// diags are the reported diagnostics — the pre-repair findings in
	// fix mode (they carry the machine edits SARIF renders as fixes).
	diags []analyze.Diagnostic
	// post are the diagnostics driving the exit status: what remains
	// after repair in fix mode, identical to diags otherwise.
	post []analyze.Diagnostic
	eff  map[string]float64
	// report is the repair fixpoint report (fix mode only).
	report *repair.Report
	// oldSrc/newSrc are the module texts around the repair (raw fix
	// mode only): -fix-diff diffs them, -fix writes newSrc back.
	oldSrc, newSrc string
}

// vet analyzes one module: raw (no barrier provenance — the class-gated
// checks are skipped) or compiled through the speculative pipeline with
// the "analyze" pass before allocation (the pipeline clones the module
// before transforming, so vm.mod is never written).
// In fix mode the raw path repairs a clone and re-analyzes it, and the
// compiled path puts the repair pass ahead of the analysis.
func vet(vm vetModule, compiled bool, effBelow float64, fixMode bool, inject core.FaultPlan) (vetResult, error) {
	if !compiled {
		if fixMode {
			clone := vm.mod.Clone()
			rep := repair.Repair(clone, repair.Options{EffNoteBelow: effBelow})
			after := analyze.Analyze(clone, analyze.Options{EffNoteBelow: effBelow})
			return vetResult{
				diags: rep.Before, post: after.Diags, eff: after.Efficiency, report: rep,
				oldSrc: ir.Print(vm.mod), newSrc: ir.Print(clone),
			}, nil
		}
		rep := analyze.Analyze(vm.mod, analyze.Options{EffNoteBelow: effBelow})
		return vetResult{diags: rep.Diags, post: rep.Diags, eff: rep.Efficiency}, nil
	}
	opts := vm.opts
	if !inject.Zero() {
		opts.Faults = inject
	}
	// core.Diagnose's pipeline (with the repair pass ahead of the analysis
	// in fix mode) and the note threshold handed to the analyze pass: the
	// default pipeline's spec with the reporting passes put in front of
	// register allocation.
	passes := fmt.Sprintf("analyze=%g,alloc", effBelow)
	if fixMode {
		passes = "repair," + passes
	}
	pipe, err := core.ParsePipeline(strings.TrimSuffix(core.PipelineFor(opts).Spec(), "alloc") + passes)
	if err != nil {
		return vetResult{}, err
	}
	comp, err := core.CompilePipeline(vm.mod, opts, pipe)
	if err != nil {
		return vetResult{}, err
	}
	if comp.RepairReport != nil {
		return vetResult{diags: comp.RepairReport.Before, post: comp.Diagnostics, eff: comp.StaticEff, report: comp.RepairReport}, nil
	}
	return vetResult{diags: comp.Diagnostics, post: comp.Diagnostics, eff: comp.StaticEff}, nil
}
