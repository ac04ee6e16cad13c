package simt

import (
	"testing"

	"specrecon/internal/ir"
)

// TestFreshWarpAllocs pins what the warp-major layout costs the arena: a
// fresh warp is at most four heap objects (the state with its inline
// lane arrays, the two register files, the barrier masks), and re-taking
// a pooled warp on a Machine relaunch allocates nothing.
func TestFreshWarpAllocs(t *testing.T) {
	const runs = 64
	s, err := newSim(asm(t, AllocTestKernel), Config{Threads: (runs + 2) * ir.WarpWidth, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// The arena's own bookkeeping slices grow amortized; give them their
	// final capacity so only the warp's objects are counted.
	s.warpPool = make([]*warpState, 0, runs+2)
	s.ctas[0].warps = make([]*warpState, 0, runs+2)
	w := 0
	take := func() {
		s.newCTAWarp(s.ctas[0], w)
		w++
	}
	if got := testing.AllocsPerRun(runs, take); got > 4 {
		t.Errorf("a fresh warp costs %v heap objects, want at most 4", got)
	}
	if s.poolWarp != len(s.warpPool) || s.poolWarp < runs {
		t.Fatalf("pool cursor %d of %d: the fresh path did not run", s.poolWarp, len(s.warpPool))
	}
	rewind := func() {
		s.poolWarp, w = 0, 0
		s.ctas[0].warps = s.ctas[0].warps[:0]
	}
	rewind()
	if got := testing.AllocsPerRun(runs, take); got != 0 {
		t.Errorf("re-taking a pooled warp costs %v heap objects, want 0", got)
	}
	// A re-taken warp is a fresh one: registers cleared, lanes at the entry.
	ws := s.warpPool[0]
	ws.regs[3*ir.WarpWidth+5], ws.fregs[7], ws.pcs[9], ws.status[9] = 42, 1.5, 17, laneWaiting
	ws.stacks[9] = append(ws.stacks[9], frame{ret: 3})
	rewind()
	if got := s.newCTAWarp(s.ctas[0], 0); got != ws {
		t.Fatal("relaunch did not hand back the pooled warp")
	}
	if ws.regs[3*ir.WarpWidth+5] != 0 || ws.fregs[7] != 0 || ws.pcs[9] != s.entryPC ||
		ws.status[9] != laneRunning || len(ws.stacks[9]) != 0 || !ws.stale {
		t.Error("re-taken warp kept state from its previous launch")
	}
}

// TestInvalidateTwice pins the no-op half of invalidate: once the table
// is stale, pcs is the authority and the per-lane edits that follow an
// invalidate have made the table's PCs garbage, so a second invalidate
// must not spill them again.
func TestInvalidateTwice(t *testing.T) {
	s, err := newSim(asm(t, AllocTestKernel), Config{Threads: ir.WarpWidth, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ws := s.newCTAWarp(s.ctas[0], 0)
	// Step until the table is current and holds diverged groups.
	for ws.stale || ws.ngroups < 2 {
		if issued, err := ws.tryStep(); !issued {
			t.Fatalf("kernel ended before diverging: err=%v", err)
		}
	}
	table := ws.groupBuf
	ws.invalidate()
	if !ws.stale {
		t.Fatal("invalidate left the table current")
	}
	for _, g := range table[:ws.ngroups] {
		for l := 0; l < ir.WarpWidth; l++ {
			if g.mask&(1<<l) != 0 && ws.pcs[l] != g.pc {
				t.Fatalf("lane %d: pcs has %d after the spill, its entry had %d", l, ws.pcs[l], g.pc)
			}
		}
	}
	// The per-lane edits an invalidating instruction makes next.
	for l := 0; l < ir.WarpWidth; l += 3 {
		ws.pcs[l]++
	}
	want := ws.pcs
	ws.invalidate()
	if ws.pcs != want {
		t.Fatalf("a second invalidate rewrote pcs:\n got %v\nwant %v", ws.pcs, want)
	}
}
