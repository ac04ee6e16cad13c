package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testLimits make a run as short as a run can be: one set-up, one timed
// op, one traced op, one round of each probe.
var testLimits = limits{setupRounds: 1, minOps: 1, minTracedOps: 1, probeRounds: 1}

// TestEveryWorkload sets every workload up, which runs one untraced op,
// and runs one traced op of it. Each op must pass its own checks, and
// the traced one reproduce the untraced one's digest, which for campaign
// also proves the layer-by-layer replay computes what diffcheck.Check
// does.
func TestEveryWorkload(t *testing.T) {
	for _, w := range allWorkloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			r := &run{runOptions: runOptions{seed: 42, limits: testLimits}, rec: &runRecord{}}
			if _, err := r.setup(w); err != nil {
				t.Fatal(err)
			}
			if r.digest == "" {
				t.Fatal("the warm-up op left no digest")
			}
			tr := newTracer(1 << 10)
			if _, ok := r.do(tr); !ok {
				t.Fatalf("traced op failed: %v", r.rec.Errors)
			}
			if len(tr.spans) < 2 || tr.spans[0].name != "bench.op" || tr.open != -1 {
				t.Errorf("the traced op left %d spans, open %d", len(tr.spans), tr.open)
			}
			if r.inst.replay != nil {
				if sim, err := r.inst.replay(tr); err != nil || sim.Issues == 0 {
					t.Errorf("replay: %d issues, %v", sim.Issues, err)
				}
			}
			if simulates := w.name != "sweep" && w.name != "figures_all"; simulates != (r.last.sim.Issues > 0) {
				t.Errorf("the op reports %d simulated issues", r.last.sim.Issues)
			}
		})
	}
}

// TestRunWorkload runs the shortest possible untraced and traced run of
// one workload through the same entry point as the command, and holds
// their output to the contract: every metric of the table present (a
// missing one fails the run), the last line exactly the four keys, the
// record and trace files written.
func TestRunWorkload(t *testing.T) {
	t.Parallel()
	w, _ := workloadByName("sweep") // the cheapest to set up
	dir := t.TempDir()
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		opts := runOptions{seed: 42, seconds: 0.01, traced: traced, outDir: dir, limits: testLimits}
		rec, err := runWorkload(w, opts, &out)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 || rec.ResultDigest == "" {
			t.Errorf("traced %v: record %+v", traced, rec)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
			t.Errorf("last line has keys %v, want exactly correct, attempted, failed, metrics", last)
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(defs) {
			t.Errorf("traced %v: %d metrics on the last line, %d in the table", traced, len(metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("metric %s [%s] is missing from the last line or has unit %q", d.name, d.unit, m.Unit)
			}
			if !strings.Contains(out.String(), d.name) {
				t.Errorf("metric %s is not printed by name", d.name)
			}
		}
		if !traced {
			for _, d := range defs {
				if metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, metrics[d.name].Value)
				}
			}
		}
		var onDisk runRecord
		if err := readJSON(filepath.Join(dir, recordFile(w.name, traced)), &onDisk); err != nil || onDisk.ResultDigest != rec.ResultDigest {
			t.Errorf("record file: %v, digest %q want %q", err, onDisk.ResultDigest, rec.ResultDigest)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "trace.sweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct{ Name string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	layers := map[string]bool{}
	for _, e := range trace.TraceEvents {
		layers[layerOf(e.Name)] = true
	}
	for _, layer := range []string{"bench", "ir", "corpus", "workloads", "core", "analyze", "ccache", "simt", "obs", "diffcheck", "harness"} {
		if !layers[layer] {
			t.Errorf("the trace file holds no span of layer %s", layer)
		}
	}
}
