package harness

import (
	"regexp"
	"strings"
	"testing"

	"specrecon/internal/cli/clitest"
	"specrecon/internal/workloads"
)

// compileRowRE matches one row of the report's compile-time table; the
// two durations are the only wall-clock text in the report.
var compileRowRE = regexp.MustCompile("(?m)^\\| ([a-z0-9-]+) \\| [0-9.]+[µm]?s \\| [0-9.]+[µm]?s \\| `")

// TestMarkdownReportGolden holds the whole markdown report — every
// figure table, the funnel, the profiles, the occupancy strips and the
// scheduler sweep — against testdata/report.golden, serially and on four
// workers, with the compile-time durations masked. The golden was
// written by the commit before the drivers were folded onto one
// measured pair, so a driver that measures something else shows up as a
// diff here (`go test ./internal/harness -run Golden -update` rewrites
// it — read the diff).
func TestMarkdownReportGolden(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		var sb strings.Builder
		if err := WriteMarkdownReport(&sb, workloads.BuildConfig{}, 60, parallelism); err != nil {
			t.Fatal(err)
		}
		clitest.Golden(t, "report", compileRowRE.ReplaceAllString(sb.String(), "| $1 | <dur> | <dur> | `"))
	}
}
