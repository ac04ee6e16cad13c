package simt

import (
	"errors"
	"strings"
	"testing"

	"specrecon/internal/ir"
)

// Error-path coverage for the launch API and runtime guards.

func TestRunUnknownKernel(t *testing.T) {
	m := asm(t, `module t memwords=8
func @k nregs=1 nfregs=0 {
e:
  exit
}
`)
	_, err := Run(m, Config{Kernel: "missing"})
	if err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("want kernel-not-found error, got %v", err)
	}
}

func TestRunNegativeThreads(t *testing.T) {
	m := asm(t, `module t memwords=8
func @k nregs=1 nfregs=0 {
e:
  exit
}
`)
	_, err := Run(m, Config{Threads: -3})
	if err == nil || !strings.Contains(err.Error(), "negative thread count") {
		t.Fatalf("want negative-threads error, got %v", err)
	}
}

func TestRunInvalidModule(t *testing.T) {
	m := ir.NewModule("bad")
	f := m.NewFunction("k")
	f.NewBlock("e") // empty block, no terminator
	_, err := Run(m, Config{})
	if err == nil || !strings.Contains(err.Error(), "invalid") {
		t.Fatalf("want module-invalid error, got %v", err)
	}
}

func TestCallStackOverflow(t *testing.T) {
	// Two functions calling each other recursively overflow the
	// per-lane call stack and must be reported, not hang or crash.
	m := asm(t, `module t memwords=8
func @ping nregs=1 nfregs=0 {
p:
  call @pong
  ret
}
func @pong nregs=1 nfregs=0 {
q:
  call @ping
  ret
}
func @k nregs=1 nfregs=0 {
e:
  call @ping
  exit
}
`)
	_, err := Run(m, Config{Kernel: "k"})
	if err == nil || !strings.Contains(err.Error(), "call stack overflow") {
		t.Fatalf("want overflow error, got %v", err)
	}
	// The stack engine guards the same way.
	_, err = Run(m, Config{Kernel: "k", Model: ModelStack})
	if err == nil || !strings.Contains(err.Error(), "call stack overflow") {
		t.Fatalf("stack engine: want overflow error, got %v", err)
	}
}

// infiniteLoop is a kernel that never terminates, for budget tests.
const infiniteLoop = `module t memwords=8
func @k nregs=1 nfregs=0 {
e:
  const r0, #1
  br e
}
`

func TestBudgetErrorTyped(t *testing.T) {
	m := asm(t, infiniteLoop)
	_, err := Run(m, Config{Threads: 1, MaxIssues: 1000})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want BudgetError, got %v", err)
	}
	if be.MaxIssues != 1000 || be.Issues < 1000 {
		t.Errorf("budget counters wrong: %+v", be)
	}
	if !strings.Contains(be.Error(), "budget exhausted") {
		t.Errorf("rendered message should mention budget exhaustion: %q", be.Error())
	}

	// The stack engine reports the same typed error.
	_, err = Run(m, Config{Threads: 1, MaxIssues: 1000, Model: ModelStack})
	if !errors.As(err, &be) {
		t.Fatalf("stack engine: want BudgetError, got %v", err)
	}
}

func TestSkipReleaseInjectsDeadlock(t *testing.T) {
	// A clean barrier kernel: all lanes join b0 and meet at a wait. With
	// SkipReleaseN=1 the single cohort release is lost, so the warp must
	// be reported deadlocked with every lane blocked at the wait.
	src := `module t memwords=64
func @k nregs=2 nfregs=0 {
e:
  tid r0
  join b0
  wait b0
  const r1, #1
  st [r0], r1
  exit
}
`
	m := asm(t, src)
	if _, err := Run(m, Config{Threads: 32, Strict: true}); err != nil {
		t.Fatalf("unfaulted run failed: %v", err)
	}
	_, err := Run(m, Config{Threads: 32, Strict: true, SkipReleaseN: 1})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want DeadlockError under release-skip fault, got %v", err)
	}
	if dl.BlockedMask() != 0xffffffff {
		t.Errorf("all 32 lanes should be blocked, got mask %08x", dl.BlockedMask())
	}
	for _, l := range dl.Lanes {
		if l.Bar != 0 {
			t.Errorf("lane %d blocked on b%d, want b0", l.Lane, l.Bar)
		}
	}
}

func TestZeroThreadLaunch(t *testing.T) {
	// Threads=0 defaults to one warp; explicit tiny counts still work.
	m := asm(t, `module t memwords=64
func @k nregs=2 nfregs=0 {
e:
  tid r0
  const r1, #1
  st [r0], r1
  exit
}
`)
	res := run(t, m, Config{Threads: 1, Strict: true})
	if res.Memory[0] != 1 || res.Memory[1] != 0 {
		t.Fatal("single-thread launch misbehaved")
	}
	if res.Metrics.SIMTEfficiency() > 0.04 {
		t.Errorf("one lane of 32 should report ~3%% efficiency, got %.3f", res.Metrics.SIMTEfficiency())
	}
}

func TestMemoryGrowsToConfig(t *testing.T) {
	m := asm(t, `module t memwords=8
func @k nregs=2 nfregs=0 {
e:
  const r0, #500
  const r1, #9
  st [r0], r1
  exit
}
`)
	res := run(t, m, Config{Threads: 1, Memory: make([]uint64, 1024), Strict: true})
	if res.Memory[500] != 9 {
		t.Fatal("a Memory longer than the module's memwords did not grow the image")
	}
}

func TestOpClassAccounting(t *testing.T) {
	m := asm(t, `module t memwords=64
func @k nregs=3 nfregs=0 {
e:
  tid r0
  const r1, #1
  st [r0], r1
  join b0
  wait b0
  exit
}
`)
	res := run(t, m, Config{Strict: true})
	oc := res.Metrics.OpClassIssues
	if oc["mem"] != 1 {
		t.Errorf("mem issues = %d, want 1", oc["mem"])
	}
	if oc["barrier"] != 2 {
		t.Errorf("barrier issues = %d, want 2", oc["barrier"])
	}
	if oc["special"] != 1 { // tid
		t.Errorf("special issues = %d, want 1", oc["special"])
	}
	if oc["control"] != 1 { // exit
		t.Errorf("control issues = %d, want 1", oc["control"])
	}
	if oc["alu"] != 1 { // const
		t.Errorf("alu issues = %d, want 1", oc["alu"])
	}
}
