package simt

import (
	"testing"

	"specrecon/internal/ir"
)

// TestGroupsMatchesMapAndSort cross-checks the group-table rebuild (the
// scan groups() runs on a stale table) against the obvious map-and-sort
// implementation on randomized lane states, including merged PCs,
// waiting and exited lanes. The test pokes per-lane status and PCs
// behind the table's back, so it marks the table stale before each read
// — which is exactly the contract every status-changing path in the
// engine keeps.
func TestGroupsMatchesMapAndSort(t *testing.T) {
	mod := asm(t, AllocTestKernel)
	s, err := newSim(mod, Config{Threads: ir.WarpWidth, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ws := s.newCTAWarp(s.ctas[0], 0)
	// A tiny deterministic generator keeps the case table reproducible.
	state := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	npc := len(s.meta)
	for trial := 0; trial < 2000; trial++ {
		// Few distinct PCs, so lanes merge; drawn from the whole decode
		// table, so both functions and every block appear.
		var pool [6]uint32
		for i := range pool {
			pool[i] = uint32(next(npc))
		}
		ref := make(map[uint32]uint32)
		wantLive := false
		for l := range ws.status {
			ws.status[l] = laneStatus(next(5))
			ws.pcs[l] = pool[next(len(pool))]
			switch ws.status[l] {
			case laneRunning:
				ref[ws.pcs[l]] |= 1 << l
				wantLive = true
			case laneWaiting, laneSyncing, laneCTAWaiting:
				wantLive = true
			}
		}
		ws.stale = true
		got, live := ws.groups()
		if live != wantLive {
			t.Fatalf("trial %d: live = %v, want %v", trial, live, wantLive)
		}
		if len(got) != len(ref) {
			t.Fatalf("trial %d: %d groups, want %d", trial, len(got), len(ref))
		}
		for i, g := range got {
			if ref[g.pc] != g.mask {
				t.Fatalf("trial %d: group %d mask %08x, want %08x", trial, g.pc, g.mask, ref[g.pc])
			}
			if i > 0 && !pcLess(s.meta[got[i-1].pc], s.meta[g.pc]) {
				t.Fatalf("trial %d: groups not sorted at %d", trial, i)
			}
		}
	}
}

// pcLess is the (fn, blk, ins) lexicographic order the flat PC must
// reproduce.
func pcLess(a, b instrMeta) bool {
	if a.fn != b.fn {
		return a.fn < b.fn
	}
	if a.blk != b.blk {
		return a.blk < b.blk
	}
	return a.ins < b.ins
}
