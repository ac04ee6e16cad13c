package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"specrecon/internal/ir"
	"specrecon/internal/obs"
	"specrecon/internal/simt"
)

// divergentBarrierKernel splits the warp at a conditional branch, spins
// half the lanes through a loop, and collects everyone at a barrier — it
// exercises every counter family: issues, divergence, memory, barriers.
const divergentBarrierKernel = `module t memwords=128
func @k nregs=3 nfregs=0 {
e:
  tid r0
  join b0
  and r1, r0, #1
  cbr r1, slow, meet
slow:
  const r2, #0
  br loop
loop:
  add r2, r2, #1
  setlt r1, r2, #50
  cbr r1, loop, meet
meet:
  wait b0
  const r2, #7
  st [r0], r2
  exit
}
`

func asm(t testing.TB, src string) *ir.Module {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

func profiledRun(t testing.TB, m *ir.Module, cfg simt.Config) (*obs.Profile, *simt.Result) {
	t.Helper()
	p := obs.NewProfile(m)
	cfg.Events = simt.TeeSinks(p, cfg.Events)
	res, err := simt.Run(m, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return p, res
}

// TestProfileMatchesMetrics: the profile's launch-wide totals must agree
// with the simulator's own Metrics — same events, two consumers.
func TestProfileMatchesMetrics(t *testing.T) {
	m := asm(t, divergentBarrierKernel)
	p, res := profiledRun(t, m, simt.Config{Strict: true})

	if p.Issues() != res.Metrics.Issues {
		t.Errorf("profile issues = %d, metrics = %d", p.Issues(), res.Metrics.Issues)
	}
	if p.Cycles() != res.Metrics.Cycles {
		t.Errorf("profile cycles = %d, metrics = %d", p.Cycles(), res.Metrics.Cycles)
	}
	if got, want := p.SIMTEfficiency(), res.Metrics.SIMTEfficiency(); got != want {
		t.Errorf("profile simt efficiency = %f, metrics = %f", got, want)
	}
}

// TestProfileBranchCounters: the entry branch diverges exactly once
// (odd/even split of the full warp); the loop back-edge branch never
// does (the slow half stays together).
func TestProfileBranchCounters(t *testing.T) {
	m := asm(t, divergentBarrierKernel)
	p, _ := profiledRun(t, m, simt.Config{Strict: true})

	branches := p.Branches()
	if len(branches) != 2 {
		t.Fatalf("branches = %d, want 2", len(branches))
	}
	var entry, loop *obs.BranchStat
	for i := range branches {
		switch branches[i].Block {
		case "e":
			entry = &branches[i]
		case "loop":
			loop = &branches[i]
		}
	}
	if entry == nil || loop == nil {
		t.Fatalf("missing branch rows: %+v", branches)
	}
	if entry.Issues != 1 || entry.Divergent != 1 {
		t.Errorf("entry branch issues/divergent = %d/%d, want 1/1", entry.Issues, entry.Divergent)
	}
	if entry.TakenLanes != 16 || entry.NotTakenLanes != 16 {
		t.Errorf("entry branch lanes = %d taken / %d not, want 16/16", entry.TakenLanes, entry.NotTakenLanes)
	}
	if entry.Efficiency() != 0 {
		t.Errorf("entry branch efficiency = %f, want 0", entry.Efficiency())
	}
	if loop.Divergent != 0 {
		t.Errorf("loop branch divergent = %d, want 0", loop.Divergent)
	}
	if loop.Efficiency() != 1 {
		t.Errorf("loop branch efficiency = %f, want 1", loop.Efficiency())
	}
	if eff := p.BranchEfficiency(); eff <= 0 || eff >= 1 {
		t.Errorf("launch branch efficiency = %f, want in (0,1)", eff)
	}
}

// TestProfileBarrierCounters: the even half blocks at the wait while the
// odd half spins, so the barrier accumulates blocked lane-cycles, and
// that stall is attributed to the wait instruction's PC.
func TestProfileBarrierCounters(t *testing.T) {
	m := asm(t, divergentBarrierKernel)
	// Round-robin scheduling interleaves the two halves, so the fast half
	// issues its wait (and blocks) while the slow half is still looping;
	// the default max-group policy would merge everyone at meet first.
	p, res := profiledRun(t, m, simt.Config{Strict: true, Policy: simt.PolicyRoundRobin})

	bars := p.Barriers()
	if len(bars) != 1 || bars[0].Barrier != 0 {
		t.Fatalf("barriers = %+v, want one row for b0", bars)
	}
	b := bars[0]
	if b.Waits != res.Metrics.BarrierWaits {
		t.Errorf("barrier waits = %d, metrics = %d", b.Waits, res.Metrics.BarrierWaits)
	}
	if b.Releases != res.Metrics.BarrierReleases {
		t.Errorf("barrier releases = %d, metrics = %d", b.Releases, res.Metrics.BarrierReleases)
	}
	if b.BlockedCycles <= 0 {
		t.Errorf("barrier blocked cycles = %d, want > 0", b.BlockedCycles)
	}
	if got := p.BarrierStallCycles(); got != b.BlockedCycles {
		t.Errorf("BarrierStallCycles = %d, want %d", got, b.BlockedCycles)
	}

	// The wait instruction (meet#0) must carry the barrier stall.
	var waitRow *obs.PCStat
	for _, r := range p.Top(0) {
		if r.Op == "wait" {
			rr := r
			waitRow = &rr
		}
	}
	if waitRow == nil {
		t.Fatal("no wait row in Top(0)")
	}
	if waitRow.BarStall != b.BlockedCycles {
		t.Errorf("wait PC barrier stall = %d, want %d", waitRow.BarStall, b.BlockedCycles)
	}
}

// TestProfileMemStall: store issues cost more than the opcode's base
// latency when transactions miss, and the overage lands in mem_stall.
func TestProfileMemStall(t *testing.T) {
	m := asm(t, divergentBarrierKernel)
	p, _ := profiledRun(t, m, simt.Config{Strict: true})
	if p.MemStallCycles() <= 0 {
		t.Errorf("mem stall cycles = %d, want > 0", p.MemStallCycles())
	}
	for _, r := range p.Top(0) {
		if r.Op == "st" && r.MemStall <= 0 {
			t.Errorf("store row %s has mem stall %d, want > 0", r.Location(), r.MemStall)
		}
	}
}

// TestProfileTopOrdering: Top(n) truncates and is sorted by attributed
// time, hottest first.
func TestProfileTopOrdering(t *testing.T) {
	m := asm(t, divergentBarrierKernel)
	p, _ := profiledRun(t, m, simt.Config{Strict: true})

	all := p.Top(0)
	if len(all) == 0 {
		t.Fatal("empty profile")
	}
	for i := 1; i < len(all); i++ {
		if all[i].Time() > all[i-1].Time() {
			t.Fatalf("Top not sorted: row %d time %d > row %d time %d", i, all[i].Time(), i-1, all[i-1].Time())
		}
	}
	if got := p.Top(3); len(got) != 3 {
		t.Fatalf("Top(3) returned %d rows", len(got))
	}
	for _, r := range all {
		if r.Issues == 0 && r.BarStall == 0 {
			t.Fatalf("Top includes never-issued PC %d", r.PC)
		}
	}
}

// TestProfileMarkdownAndJSON: the renderers include every section and the
// JSON dump round-trips.
func TestProfileMarkdownAndJSON(t *testing.T) {
	m := asm(t, divergentBarrierKernel)
	p, _ := profiledRun(t, m, simt.Config{Strict: true})

	var md bytes.Buffer
	if err := p.WriteMarkdown(&md, 5); err != nil {
		t.Fatalf("WriteMarkdown: %v", err)
	}
	for _, want := range []string{
		"| issues | cycles | simt eff | branch eff | mem stall | barrier stall |",
		"hot spots (top 5 by attributed cycles):",
		"branches:",
		"barriers:",
		"| b0 |",
	} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown missing %q:\n%s", want, md.String())
		}
	}

	var js bytes.Buffer
	if err := p.WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var dump struct {
		Summary struct {
			Issues           int64   `json:"issues"`
			BranchEfficiency float64 `json:"branch_efficiency"`
		} `json:"summary"`
		PCs      []json.RawMessage `json:"pcs"`
		Branches []json.RawMessage `json:"branches"`
		Barriers []json.RawMessage `json:"barriers"`
	}
	if err := json.Unmarshal(js.Bytes(), &dump); err != nil {
		t.Fatalf("JSON dump does not parse: %v", err)
	}
	if dump.Summary.Issues != p.Issues() {
		t.Errorf("JSON summary issues = %d, want %d", dump.Summary.Issues, p.Issues())
	}
	if len(dump.PCs) == 0 || len(dump.Branches) != 2 || len(dump.Barriers) != 1 {
		t.Errorf("JSON sections pcs=%d branches=%d barriers=%d", len(dump.PCs), len(dump.Branches), len(dump.Barriers))
	}
}

// TestProfileDiff: a profile diffed against itself reports zero deltas;
// against a run with different behavior the mover list is non-empty and
// sorted by absolute delta.
func TestProfileDiff(t *testing.T) {
	m := asm(t, divergentBarrierKernel)
	p1, _ := profiledRun(t, m, simt.Config{Strict: true})
	p2, _ := profiledRun(t, m, simt.Config{Strict: true})

	for _, d := range obs.Diff(p1, p2) {
		if d.Delta() != 0 {
			t.Errorf("self-diff block %s.%s has delta %d", d.Fn, d.Block, d.Delta())
		}
	}

	// Same kernel under the pre-Volta stack model: serialization changes
	// per-block costs, so movers must appear.
	p3, _ := profiledRun(t, m, simt.Config{Strict: true, Model: simt.ModelStack})
	deltas := obs.Diff(p1, p3)
	if len(deltas) == 0 {
		t.Fatal("stack-vs-its diff is empty")
	}
	for i := 1; i < len(deltas); i++ {
		a, b := deltas[i-1], deltas[i]
		if abs(b.Delta()) > abs(a.Delta()) {
			t.Fatalf("diff not sorted by |delta|: %d after %d", b.Delta(), a.Delta())
		}
	}

	var buf bytes.Buffer
	if err := obs.WriteDiffMarkdown(&buf, p1, p3, 5); err != nil {
		t.Fatalf("WriteDiffMarkdown: %v", err)
	}
	if !strings.Contains(buf.String(), "| block | base cycles | spec cycles |") {
		t.Errorf("diff markdown missing header:\n%s", buf.String())
	}
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
