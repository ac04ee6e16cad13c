package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is the root BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesRunner holds BENCHMARK.json and the runner's
// own tables together: every workload and metric the file names is one
// the runner emits, and the other way round. That a run emits every
// metric of its table is runWorkload's own check (TestRunWorkload).
func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", file.Paths)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the runner's default is %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Command) == 0 {
		t.Errorf("no command")
	}

	if len(file.Workloads) < 2 || len(file.Workloads) > 8 || len(file.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads in the file, %d in the runner (2 to 8 allowed)", len(file.Workloads), len(allWorkloads))
	}
	seen := map[string]bool{}
	for i, w := range file.Workloads {
		if w.Name != allWorkloads[i].name {
			t.Errorf("workload %d is %q in the file, %q in the runner", i, w.Name, allWorkloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or used twice", w.Name)
		}
		seen[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: its why must be one line of 1 to 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	check := func(kind string, got []fileMetric, want []metricDef, max int, bounded bool) {
		if len(got) > max || len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the file, %d in the runner (at most %d allowed)", kind, len(got), len(want), max)
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s metric %d is %s [%s] in the file, %s [%s] in the runner", kind, i, m.Name, m.Unit, d.name, d.unit)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s metric %q [%q] is malformed or its name is used twice", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			switch {
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			case bounded && (m.Bound == nil || *m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25 || m.Better != "lower"):
				t.Errorf("%s: bound %v in the file, %v in the runner (lower-is-better, within (0, 0.25])", m.Name, m.Bound, d.bound)
			}
		}
	}
	check("end-to-end", file.EndToEnd, endToEnd, 16, true)
	check("per-layer", file.PerLayer, perLayer, 128, false)

	widest := 0.0
	for _, d := range endToEnd {
		if d.bound > widest {
			widest = d.bound
		}
	}
	if d := endToEnd[0]; d.name != "setup_s" || d.unit != "s" || d.bound != widest {
		t.Errorf("setup_s must be an end-to-end metric in s with the widest bound, got %+v", d)
	}
	for _, d := range perLayer {
		if d.exact && layerOf(d.name) == "bench" {
			t.Errorf("%s: a number about the run itself cannot be exact", d.name)
		}
	}
}
