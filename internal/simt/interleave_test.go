package simt

import (
	"errors"
	"strings"
	"testing"
)

// TestInterleavedWarpsSameResults: interleaving warps changes only
// timing and cache behaviour, never results.
func TestInterleavedWarpsSameResults(t *testing.T) {
	m := asm(t, `module t memwords=8192
func @k nregs=4 nfregs=2 {
e:
  tid r0
  const r1, #0
  fconst f0, #0.0
  br hdr
hdr:
  setlt r2, r1, #40
  cbr r2, body, done
body:
  mul r3, r0, #7
  add r3, r3, r1
  and r3, r3, #4095
  fld f1, [r3+128]
  fadd f0, f0, f1
  add r1, r1, #1
  br hdr
done:
  fst [r0], f0
  exit
}
`)
	seq := run(t, m, Config{Threads: 128, Seed: 5, Strict: true})
	inter := run(t, m, Config{Threads: 128, Seed: 5, Strict: true, InterleaveWarps: true})
	for i := range seq.Memory {
		if seq.Memory[i] != inter.Memory[i] {
			t.Fatalf("interleaving changed results at word %d", i)
		}
	}
	if seq.Metrics.Issues != inter.Metrics.Issues {
		t.Errorf("issue counts differ: %d vs %d", seq.Metrics.Issues, inter.Metrics.Issues)
	}
	// With four warps gathering across a shared cache, contention
	// shifts hit/miss counts relative to running warps back to back.
	if seq.Metrics.CacheMisses == inter.Metrics.CacheMisses {
		t.Logf("note: cache stats identical (%d misses); contention did not materialize at this size",
			seq.Metrics.CacheMisses)
	}
}

// TestInterleavedBarriersStayPerWarp: barriers are warp-scoped, so two
// warps using the same barrier register never interfere.
func TestInterleavedBarriersStayPerWarp(t *testing.T) {
	m := asm(t, `module t memwords=512
func @k nregs=3 nfregs=0 {
e:
  tid r0
  join b0
  and r1, r0, #1
  cbr r1, detour, meet
detour:
  const r2, #20
  br spin
spin:
  sub r2, r2, #1
  setgt r1, r2, #0
  cbr r1, spin, meet
meet:
  wait b0
  const r2, #1
  st [r0], r2
  exit
}
`)
	res := run(t, m, Config{Threads: 96, Strict: true, InterleaveWarps: true})
	for i := 0; i < 96; i++ {
		if res.Memory[i] != 1 {
			t.Fatalf("thread %d did not complete", i)
		}
	}
}

// TestInterleavedDeadlockStillDetected: a deadlocked warp is reported
// even while other warps continue.
func TestInterleavedDeadlockStillDetected(t *testing.T) {
	m := asm(t, `module t memwords=64
func @k nregs=2 nfregs=0 {
e:
  tid r0
  join b0
  join b1
  and r1, r0, #1
  cbr r1, w0, w1
w0:
  wait b0
  cancel b1
  exit
w1:
  wait b1
  cancel b0
  exit
}
`)
	_, err := Run(m, Config{Threads: 64, InterleaveWarps: true})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	// The diagnostic must identify both cross-linked barriers and every
	// blocked lane with its per-lane PC.
	if len(dl.Barriers) != 2 {
		t.Errorf("want 2 barrier snapshots, got %+v", dl.Barriers)
	}
	if dl.BlockedMask() == 0 {
		t.Error("want blocked lanes in the diagnostic")
	}
	for _, l := range dl.Lanes {
		if l.Fn != "k" || l.Bar < 0 {
			t.Errorf("blocked lane %+v missing PC/barrier detail", l)
		}
	}
	if !strings.Contains(dl.Error(), "deadlock") {
		t.Errorf("rendered message should still read as a deadlock: %q", dl.Error())
	}
}
