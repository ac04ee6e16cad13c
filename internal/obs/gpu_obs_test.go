package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"specrecon/internal/ir"
	"specrecon/internal/obs"
	"specrecon/internal/simt"
)

// gridKernel is a small multi-CTA workload with shared memory and a
// workgroup barrier, shaped so several SMs carry real work.
const gridKernel = `module g memwords=64 sharedwords=64
func @k nregs=8 nfregs=0 {
entry:
  ctatid r0
  tid r1
  sts [r0], r1
  ctabar b0
  setlt r2, r0, #1
  cbr r2, lead, done
lead:
  lds r3, [r0+1]
  ctaid r4
  st [r4], r3
  br done
done:
  exit
}
`

// TestReplayedProfileMatchesSerial pins the profiler's sharding contract:
// a profile on Config.Events of a launch sharded over two workers — fed
// from the per-SM replay logs once the SMs have retired — renders
// byte-identically to the profile of the serial launch, fed in place.
func TestReplayedProfileMatchesSerial(t *testing.T) {
	m := asm(t, gridKernel)
	// Two warps per CTA so the workgroup barrier actually makes the
	// first warp wait (and nonzero stall time is attributed).
	cfg := simt.Config{Grid: 4, CTASize: 2 * ir.WarpWidth, SMs: 2, Seed: 5}
	render := func(workers int) ([]byte, *obs.Profile) {
		p := obs.NewProfile(m)
		run := cfg
		run.Workers, run.Events = workers, p
		if _, err := simt.Run(m, run); err != nil {
			t.Fatalf("Workers %d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), p
	}
	want, _ := render(1)
	got, replayed := render(2)
	if !bytes.Equal(got, want) {
		t.Errorf("replayed profile differs from the serial one\nreplayed:\n%s\nserial:\n%s", got, want)
	}
	if replayed.BarrierStallCycles() == 0 {
		t.Error("BarrierStallCycles = 0, want ctabar stalls attributed")
	}
}

// TestTraceMultiSM checks the grid-trace shape: one named process per
// SM, every event's pid within range, ctabar spans present, and each
// warp's tracks confined to a single SM.
func TestTraceMultiSM(t *testing.T) {
	m := asm(t, gridKernel)
	rec := obs.NewTraceRecorder()
	cfg := simt.Config{Grid: 4, CTASize: ir.WarpWidth, SMs: 2, Seed: 5, Events: rec}
	if _, err := simt.Run(m, cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	procs := map[int]string{}
	tidPid := map[int]int{}
	sawCTABar := false
	for _, ev := range tf.TraceEvents {
		if ev.Pid < 0 || ev.Pid >= cfg.SMs {
			t.Fatalf("event %q has pid %d outside [0,%d)", ev.Name, ev.Pid, cfg.SMs)
		}
		if ev.Name == "process_name" {
			procs[ev.Pid], _ = ev.Args["name"].(string)
			continue
		}
		if ev.Ph == "M" {
			continue
		}
		if prev, ok := tidPid[ev.Tid]; ok && prev != ev.Pid {
			t.Fatalf("tid %d appears under pid %d and pid %d", ev.Tid, prev, ev.Pid)
		}
		tidPid[ev.Tid] = ev.Pid
		if ev.Name == "ctabar b0" {
			sawCTABar = true
		}
	}
	if procs[0] != "sm 0" || procs[1] != "sm 1" {
		t.Errorf("process names = %v, want sm 0 / sm 1", procs)
	}
	if !sawCTABar {
		t.Error("no ctabar span in the trace")
	}
}
