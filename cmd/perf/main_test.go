package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageExits: no subcommand, an unknown one, and each subcommand
// short of its arguments print the usage and exit 2.
func TestUsageExits(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"guard"},
		{"gate"},
		{"gate", "BENCHMARK.json", "only-one-dir"},
		{"pairs"},
		{"pairs", "-a", "."},
		{"pairs", "-a", ".", "-b", ".", "-n", "0"},
		{"pairs", "-a", ".", "-b", ".", "stray"},
		{"ledger"},
		{"json"},
	} {
		code, stdout, stderr := runPerf(args...)
		if code != 2 || !strings.Contains(stderr, "usage: perf gate") || stdout != "" {
			t.Errorf("perf %v: exit %d, stdout %q, stderr %q", args, code, stdout, stderr)
		}
	}
}

func TestJSONExitCodes(t *testing.T) {
	dir := t.TempDir()
	file := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := file("good.json", `{"traceEvents":[{"ph":"X"}]}`)
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // in stderr on 1, in stdout on 0
	}{
		{"good file", []string{good}, 0, "good.json: ok (28 bytes)"},
		{"two good files", []string{good, file("scalar.json", "3\n")}, 0, "scalar.json: ok"},
		{"empty file", []string{file("empty.json", "")}, 1, "empty file"},
		{"malformed JSON", []string{file("cut.json", `{"a":`)}, 1, "unexpected end of JSON input"},
		{"trailing garbage", []string{file("two.json", "{} {}")}, 1, "two.json"},
		{"missing file", []string{filepath.Join(dir, "absent.json")}, 1, "absent.json"},
		{"bad file after a good one", []string{good, file("bad.json", "nope")}, 1, "bad.json"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runPerf(append([]string{"json"}, tc.args...)...)
			if code != tc.code {
				t.Fatalf("exit = %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, stdout, stderr)
			}
			out := stdout
			if tc.code != 0 {
				out = stderr
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("output missing %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestLimitOps pins the one comparator every gate goes through, at the
// boundary of each operator.
func TestLimitOps(t *testing.T) {
	for _, tc := range []struct {
		op, to string
		v      float64
		holds  bool
	}{
		{"<=", "100", 100, true}, {"<=", "99", 100, false},
		{"<", "100", 100, false}, {"<", "101", 100, true},
		{">=", "100", 100, true}, {">=", "101", 100, false},
		{">", "100", 100, false}, {">", "99", 100, true},
	} {
		lim, err := parseLimit(tc.op, tc.to)
		if err != nil || lim.holds(tc.v) != tc.holds {
			t.Errorf("%g %s %s: holds %v (err %v), want %v", tc.v, tc.op, tc.to, lim.holds(tc.v), err, tc.holds)
		}
	}
	for _, bad := range [][2]string{{"==", "1"}, {"=<", "1"}, {"<=", "fast"}, {"<=", ""}} {
		if _, err := parseLimit(bad[0], bad[1]); err == nil {
			t.Errorf("parseLimit(%q, %q) accepted", bad[0], bad[1])
		}
	}
}
