package simt

import (
	"testing"

	"specrecon/internal/ir"
)

// TestGroupsMatchesMapAndSort cross-checks the group-table rebuild (the
// scan groups() runs on a stale table) against the obvious map-and-sort
// implementation on randomized lane states, including merged PCs,
// waiting and exited lanes. The test pokes lane fields behind the
// table's back, so it marks the table stale before each read — which is
// exactly the contract every status-changing path in the engine keeps.
func TestGroupsMatchesMapAndSort(t *testing.T) {
	mod := asm(t, AllocTestKernel)
	s, err := newSim(mod, Config{Threads: ir.WarpWidth, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ws := s.newWarp(0)
	// A tiny deterministic generator keeps the case table reproducible.
	state := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	for trial := 0; trial < 2000; trial++ {
		for _, ln := range ws.lanes {
			ln.status = laneStatus(next(5))
			ln.pc = pcT{fn: next(2), blk: next(5), ins: next(3)}
		}
		ref := make(map[pcT]uint32)
		wantLive := false
		for l, ln := range ws.lanes {
			switch ln.status {
			case laneRunning:
				ref[ln.pc] |= 1 << l
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
			if g.pc.pc().key() != g.pc {
				t.Fatalf("trial %d: PC key %#x does not round-trip (%v)", trial, g.pc, g.pc.pc())
			}
			if ref[g.pc.pc()] != g.mask {
				t.Fatalf("trial %d: group %v mask %08x, want %08x", trial, g.pc.pc(), g.mask, ref[g.pc.pc()])
			}
			if i > 0 && !pcLess(got[i-1].pc.pc(), g.pc.pc()) {
				t.Fatalf("trial %d: groups not sorted at %d", trial, i)
			}
		}
	}
}

// pcLess is the (fn, blk, ins) lexicographic order the packed pcKey
// must reproduce.
func pcLess(a, b pcT) bool {
	if a.fn != b.fn {
		return a.fn < b.fn
	}
	if a.blk != b.blk {
		return a.blk < b.blk
	}
	return a.ins < b.ins
}
