package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runPerf drives the CLI the way main does and returns its exit code
// and both streams.
func runPerf(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

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

// TestUsageAndErrorExits: perf has no ledger subcommand, so every command
// line the retired one took, well-formed or not, is a usage error: exit
// 2, the usage text, nothing on stdout.
func TestUsageAndErrorExits(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"check-no-gates", []string{"-ledger", "runs.jsonl"}},
		{"stray-argument", []string{"-ledger", "runs.jsonl", "-gate", "wall_seconds <= 1", "extra"}},
		{"retired-append-flag", []string{"-ledger", "runs.jsonl", "-append"}},
		{"bad-gate-grammar", []string{"-ledger", "runs.jsonl", "-gate", "wall_seconds"}},
		{"bad-gate-op", []string{"-ledger", "runs.jsonl", "-gate", "wall_seconds == 1"}},
		{"bad-gate-ratio", []string{"-ledger", "runs.jsonl", "-gate", "wall_seconds <= fast"}},
		{"unknown-metric", []string{"-ledger", "runs.jsonl", "-gate", "no_such <= 1"}},
		{"missing-ledger", []string{"-ledger", "absent.jsonl", "-gate", "a <= 1"}},
		{"malformed-ledger", []string{"-ledger", "bad.jsonl", "-gate", "a <= 1"}},
		{"no-matching-tool", []string{"-ledger", "runs.jsonl", "-tool", "other", "-gate", "a <= 1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runPerf(append([]string{"ledger"}, tc.args...)...)
			if code != 2 || !strings.HasPrefix(stderr, "usage: perf gate") || stdout != "" {
				t.Errorf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
			}
		})
	}
}
