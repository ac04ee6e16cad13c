package obs

import (
	"fmt"
	"sort"
	"strings"

	"specrecon/internal/ir"
	"specrecon/internal/simt"
)

// issueRec is the slice of an issue event the timeline needs.
type issueRec struct {
	issue int64
	block string
	mask  uint32
}

// Timeline renders an ASCII lane-occupancy timeline of one warp — the
// textual equivalent of the paper's Figure 1 and Figure 3(b) execution
// cartoons. Each row is one issued warp instruction (optionally
// downsampled); each column is a lane; the glyph is the executing block's
// letter, with '.' for an inactive lane. It is a simt.EventSink over the
// generalized event stream (simt.Config.Events) and ignores every kind
// but EvIssue.
type Timeline struct {
	warp   int
	events []issueRec
	glyphs map[string]byte
	order  []string
}

// NewTimeline returns a timeline recorder for the given warp index.
func NewTimeline(warp int) *Timeline {
	return &Timeline{warp: warp, glyphs: make(map[string]byte)}
}

// Event implements simt.EventSink; attach the timeline via
// simt.Config.Events.
func (t *Timeline) Event(ev *simt.Event) {
	if ev.Kind != simt.EvIssue || int(ev.Warp) != t.warp {
		return
	}
	if _, ok := t.glyphs[ev.BlockName]; !ok {
		t.glyphs[ev.BlockName] = t.glyphFor(ev.BlockName)
		t.order = append(t.order, ev.BlockName)
	}
	t.events = append(t.events, issueRec{issue: ev.Issue, block: ev.BlockName, mask: ev.Mask})
}

// glyphFor picks an unused glyph, preferring the block name's letters so
// timelines stay readable.
func (t *Timeline) glyphFor(block string) byte {
	taken := make(map[byte]bool, len(t.glyphs))
	for _, g := range t.glyphs {
		taken[g] = true
	}
	upper := func(c byte) byte {
		if c >= 'a' && c <= 'z' {
			return c - 'a' + 'A'
		}
		return c
	}
	for i := 0; i < len(block); i++ {
		c := upper(block[i])
		if c >= 'A' && c <= 'Z' && !taken[c] {
			return c
		}
	}
	for c := byte('A'); c <= 'Z'; c++ {
		if !taken[c] {
			return c
		}
	}
	return byte('0' + len(t.glyphs)%10)
}

// Render draws at most maxRows rows, downsampling evenly when the trace
// is longer, followed by a legend mapping glyphs to block names.
func (t *Timeline) Render(maxRows int) string {
	if len(t.events) == 0 {
		return "(empty trace)\n"
	}
	step := 1
	if maxRows > 0 && len(t.events) > maxRows {
		step = (len(t.events) + maxRows - 1) / maxRows
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "issue    lanes 0..%d\n", ir.WarpWidth-1)
	for i := 0; i < len(t.events); i += step {
		ev := t.events[i]
		var row [ir.WarpWidth]byte
		for l := 0; l < ir.WarpWidth; l++ {
			if ev.mask&(1<<l) != 0 {
				row[l] = t.glyphs[ev.block]
			} else {
				row[l] = '.'
			}
		}
		fmt.Fprintf(&sb, "%7d  %s\n", ev.issue, string(row[:]))
	}
	sb.WriteString("\nlegend: ")
	// Stable legend order: first-seen blocks.
	legend := make([]string, 0, len(t.order))
	for _, name := range t.order {
		legend = append(legend, fmt.Sprintf("%c=%s", t.glyphs[name], name))
	}
	sb.WriteString(strings.Join(legend, " "))
	sb.WriteString("\n")
	return sb.String()
}

// OccupancyHistogram summarizes how many issues ran with each active-lane
// count; a compact view of SIMT efficiency structure.
func (t *Timeline) OccupancyHistogram() string {
	counts := make(map[int]int)
	for _, ev := range t.events {
		n := 0
		for m := ev.mask; m != 0; m &= m - 1 {
			n++
		}
		counts[n]++
	}
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var sb strings.Builder
	sb.WriteString("active-lanes  issues\n")
	maxCount := 0
	for _, k := range keys {
		if counts[k] > maxCount {
			maxCount = counts[k]
		}
	}
	for _, k := range keys {
		bar := strings.Repeat("#", counts[k]*40/maxCount)
		fmt.Fprintf(&sb, "%12d  %6d %s\n", k, counts[k], bar)
	}
	return sb.String()
}
