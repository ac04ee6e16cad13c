package obs

import (
	"strings"
	"testing"

	"specrecon/internal/ir"
	"specrecon/internal/simt"
)

func buildKernel(t *testing.T) *ir.Module {
	t.Helper()
	src := `module t memwords=64
func @k nregs=2 nfregs=0 {
entry:
  tid r0
  and r1, r0, #1
  cbr r1, odd, even
odd:
  st [r0], r1
  exit
even:
  st [r0], r1
  exit
}
`
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTimelineRender(t *testing.T) {
	m := buildKernel(t)
	tl := NewTimeline(0)
	if _, err := simt.Run(m, simt.Config{Strict: true, Events: tl}); err != nil {
		t.Fatal(err)
	}
	out := tl.Render(100)
	if !strings.Contains(out, "legend:") {
		t.Error("render missing legend")
	}
	lines := strings.Split(out, "\n")
	// Every timeline row must be exactly warp-width glyphs wide.
	rows := 0
	for _, ln := range lines[1:] {
		if !strings.Contains(ln, "  ") || strings.HasPrefix(ln, "legend") || ln == "" {
			continue
		}
		fields := strings.Fields(ln)
		if len(fields) != 2 {
			continue
		}
		if len(fields[1]) != ir.WarpWidth {
			t.Errorf("row width %d, want %d: %q", len(fields[1]), ir.WarpWidth, ln)
		}
		rows++
	}
	if rows == 0 {
		t.Error("no timeline rows rendered")
	}
	// Divergent halves must show up as partial rows ('.' present).
	if !strings.Contains(out, ".") {
		t.Error("expected inactive lanes in a divergent kernel")
	}
}

func TestTimelineDownsamples(t *testing.T) {
	m := buildKernel(t)
	tl := NewTimeline(0)
	if _, err := simt.Run(m, simt.Config{Strict: true, Events: tl}); err != nil {
		t.Fatal(err)
	}
	out := tl.Render(2)
	rows := 0
	for _, ln := range strings.Split(out, "\n") {
		fields := strings.Fields(ln)
		if len(fields) == 2 && len(fields[1]) == ir.WarpWidth {
			rows++
		}
	}
	if rows > 3 {
		t.Errorf("downsampling to 2 rows produced %d rows", rows)
	}
}

func TestUniqueGlyphs(t *testing.T) {
	m := buildKernel(t)
	tl := NewTimeline(0)
	if _, err := simt.Run(m, simt.Config{Strict: true, Events: tl}); err != nil {
		t.Fatal(err)
	}
	seen := map[byte]string{}
	for name, g := range tl.glyphs {
		if prev, dup := seen[g]; dup {
			t.Errorf("glyph %c shared by %q and %q", g, prev, name)
		}
		seen[g] = name
	}
}

func TestOccupancyHistogram(t *testing.T) {
	m := buildKernel(t)
	tl := NewTimeline(0)
	if _, err := simt.Run(m, simt.Config{Strict: true, Events: tl}); err != nil {
		t.Fatal(err)
	}
	h := tl.OccupancyHistogram()
	if !strings.Contains(h, "32") || !strings.Contains(h, "16") {
		t.Errorf("histogram should show full-warp and half-warp rows:\n%s", h)
	}
}

func TestEmptyTimeline(t *testing.T) {
	tl := NewTimeline(3) // warp 3 never traced
	if out := tl.Render(10); !strings.Contains(out, "empty") {
		t.Errorf("empty render = %q", out)
	}
}
