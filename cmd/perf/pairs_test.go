package main

import (
	"strings"
	"testing"
)

func samples(vs ...float64) []sample {
	var out []sample
	for _, v := range vs {
		out = append(out, sample{value: v, attempted: 10})
	}
	return out
}

func TestVerdict(t *testing.T) {
	a := samples(0.112, 0.113, 0.111, 0.114, 0.112, 0.113, 0.112, 0.111, 0.113, 0.112)
	for _, c := range []struct {
		name string
		b    []sample
		ok   bool
	}{
		{"clear gain", samples(0.058, 0.058, 0.057, 0.058, 0.059, 0.058, 0.058, 0.057, 0.058, 0.058), true},
		// Eight wins of ten is short of nine tenths.
		{"two losses", samples(0.058, 0.058, 0.057, 0.058, 0.059, 0.058, 0.058, 0.057, 0.120, 0.120), false},
		// Ten wins, but by less than A's own quartile spread.
		{"inside the spread", samples(0.1119, 0.1129, 0.1109, 0.1139, 0.1119, 0.1129, 0.1119, 0.1109, 0.1129, 0.1119), false},
	} {
		if ok, report := verdict(a, c.b); ok != c.ok {
			t.Errorf("%s: verdict %v, want %v\n%s", c.name, ok, c.ok, report)
		}
	}
	failing := samples(0.058, 0.058, 0.057, 0.058, 0.059, 0.058, 0.058, 0.057, 0.058, 0.058)
	failing[3].failed = 1
	if ok, report := verdict(a, failing); ok || !strings.Contains(report, "failed 1 of 100") {
		t.Errorf("a side with more failed ops kept its gain:\n%s", report)
	}
}

func TestParseResult(t *testing.T) {
	out := []byte("workload grid_launch ...\n  op_wall_s 0.06 s\n" +
		`{"correct":true,"attempted":61,"failed":0,"metrics":{"op_wall_s":{"value":0.0626,"unit":"s"}}}` + "\n")
	s, err := parseResult(out)
	if err != nil || s.value != 0.0626 || s.attempted != 61 {
		t.Fatalf("parseResult = %+v, %v", s, err)
	}
	noMetric := []byte(`{"correct":true,"attempted":61,"failed":0,"metrics":{"setup_s":{"value":1}}}` + "\n")
	if _, err := parseResult(noMetric); err == nil {
		t.Fatal("a run without op_wall_s was accepted")
	}
	if _, err := parseResult([]byte("not json\n")); err == nil {
		t.Fatal("a run without a result line was accepted")
	}
}
