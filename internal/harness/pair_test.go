package harness

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"specrecon/internal/core"
	"specrecon/internal/ir"
	"specrecon/internal/simt"
	"specrecon/internal/workloads"
)

// measured is the part of a row the simulator decides: whichever driver
// fills a Comparison for the same builds must agree on it.
type measured struct {
	Name, Pattern          string
	BaseEff, SpecEff       float64
	BaseCycles, SpecCycles int64
	BaseIssues, SpecIssues int64
	Conflicts, Threshold   int
}

func measuredOf(c Comparison) measured {
	return measured{c.Name, c.Pattern, c.BaseEff, c.SpecEff, c.BaseCycles, c.SpecCycles, c.BaseIssues, c.SpecIssues, c.Conflicts, c.Threshold}
}

// TestCompareFillsOneWay: the exported comparisons are callers of one
// compare, so on the same builds they report the same measurement, and
// none of them leaves the compile columns empty.
func TestCompareFillsOneWay(t *testing.T) {
	w, err := workloads.Get("rsbench")
	if err != nil {
		t.Fatal(err)
	}
	cfg := workloads.BuildConfig{Tasks: 4}
	viaCompare, err := Compare(w, cfg, -1)
	if err != nil {
		t.Fatal(err)
	}
	viaCache, err := CompareWithCache(w, cfg, simt.CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	inst := w.Build(cfg)
	byHand, err := compare(w.Name, w.Pattern, inst, inst.Module, core.SpecReconOptions(), false,
		func(_ *ir.Module, runCfg simt.Config) simt.Config { return runCfg })
	if err != nil {
		t.Fatal(err)
	}
	want := measuredOf(viaCompare)
	if want.SpecCycles == 0 || want.SpecIssues == 0 || want.Threshold == 0 {
		t.Fatalf("Compare left a measured field empty: %+v", want)
	}
	for name, c := range map[string]Comparison{"CompareWithCache": viaCache, "compare": byHand} {
		if got := measuredOf(c); got != want {
			t.Errorf("%s measured %+v, Compare measured %+v", name, got, want)
		}
	}

	auto, _, err := AutoComparison(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	guided, _, err := ProfileGuidedAutoComparison(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]Comparison{"Compare": viaCompare, "CompareWithCache": viaCache, "AutoComparison": auto, "ProfileGuidedAutoComparison": guided} {
		if c.BaseCompile <= 0 || c.SpecCompile <= 0 || !strings.HasPrefix(c.SpecPipeline, "pdom,predict,") {
			t.Errorf("%s row lacks its compile columns: base %v, spec %v, pipeline %q", name, c.BaseCompile, c.SpecCompile, c.SpecPipeline)
		}
	}
}

// TestProfileGuidedKeepsLaunchShape: on kernels where the static and the
// profile-guided detector apply the same single candidate, the two rows
// are the same measurement under any launch shape. Before the drivers
// shared one compare the profile-guided speculative side was launched
// flat on one SM under the greedy scheduler whatever the shape asked for
// (meiyamd5: 459362 spec cycles against 233908).
func TestProfileGuidedKeepsLaunchShape(t *testing.T) {
	cfg := workloads.BuildConfig{Grid: 4, CTASize: 64, SMs: 2, Sched: simt.SchedOldestFirst}
	for _, name := range []string{"meiyamd5", "optix-ao"} {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		auto, autoApplied, err := AutoComparison(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		guided, guidedApplied, err := ProfileGuidedAutoComparison(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(autoApplied) != 1 || len(guidedApplied) != 1 ||
			autoApplied[0].At.Name != guidedApplied[0].At.Name || autoApplied[0].Label.Name != guidedApplied[0].Label.Name {
			t.Fatalf("%s: the detectors no longer apply the same single candidate: %v vs %v", name, autoApplied, guidedApplied)
		}
		if got, want := measuredOf(guided), measuredOf(auto); got != want {
			t.Errorf("%s: profile-guided row %+v, static row %+v", name, got, want)
		}
	}
}

// TestThresholdSweepSharesOneBaseline: one row per threshold, in order,
// all against the same baseline, and Figure9 is a view of it.
func TestThresholdSweepSharesOneBaseline(t *testing.T) {
	w, err := workloads.Get("xsbench")
	if err != nil {
		t.Fatal(err)
	}
	cfg, thresholds := workloads.BuildConfig{Tasks: 4}, []int{1, 20, 32}
	rows, err := ThresholdSweep(w.Build(cfg), core.SpecReconOptions(), thresholds, 2)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := Figure9("xsbench", cfg, thresholds, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range rows {
		if c.Threshold != thresholds[i] || c.BaseCycles != rows[0].BaseCycles || c.BaseEff != rows[0].BaseEff {
			t.Errorf("row %d: threshold %d, baseline %d cycles; want threshold %d on the shared baseline (%d cycles)",
				i, c.Threshold, c.BaseCycles, thresholds[i], rows[0].BaseCycles)
		}
		if want := (ThresholdPoint{Threshold: c.Threshold, Eff: c.SpecEff, Speedup: c.Speedup(), Cycles: c.SpecCycles}); pts[i] != want {
			t.Errorf("Figure9 point %d = %+v, sweep row gives %+v", i, pts[i], want)
		}
	}
}

// TestOnePairInSource keeps the next experiment a caller of launch and
// compare rather than one more copy of them: in this package's non-test
// code the simulator is entered in one place and a Comparison is filled
// in one place (eleven and four before the drivers were folded).
func TestOnePairInSource(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var code strings.Builder
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if !strings.HasPrefix(strings.TrimSpace(line), "//") {
				code.WriteString(line + "\n")
			}
		}
	}
	for what, re := range map[string]*regexp.Regexp{
		"simt.Run( call":                 regexp.MustCompile(`\bsimt\.Run\(`),
		"populated Comparison{} literal": regexp.MustCompile(`\bComparison\{\s*[^}\s]`),
	} {
		if n := len(re.FindAllString(code.String(), -1)); n != 1 {
			t.Errorf("%d %ss in internal/harness, want exactly 1", n, what)
		}
	}
}
