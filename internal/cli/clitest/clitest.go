// Package clitest drives a binary's run(args, stdout, stderr) function
// from its tests: exit status, golden stdout, a stderr substring, and
// the registered flag-name set. `go test ./cmd/... -update` rewrites the
// golden files under each command's testdata/.
package clitest

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from this run")

// Run is a command's entry point with its process surface injected.
type Run func(args []string, stdout, stderr io.Writer) int

// Case is one invocation. Name also names testdata/<Name>.golden, which
// stdout must equal (no file: stdout must be empty). "$TMP" in Args is a
// fresh directory, and reads "$TMP" again in what the command printed.
type Case struct {
	Name   string
	Args   []string
	Code   int
	Stderr string // a substring stderr must carry
}

// Exec runs one invocation and returns its exit status and output.
func Exec(t *testing.T, run Run, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	tmp := t.TempDir()
	argv := make([]string, len(args))
	for i, a := range args {
		argv[i] = strings.ReplaceAll(a, "$TMP", tmp)
	}
	var out, errb bytes.Buffer
	code = run(argv, &out, &errb)
	return code, strings.ReplaceAll(out.String(), tmp, "$TMP"), strings.ReplaceAll(errb.String(), tmp, "$TMP")
}

// Check runs every case as a subtest.
func Check(t *testing.T, run Run, cases []Case) {
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			code, stdout, stderr := Exec(t, run, tc.Args...)
			if code != tc.Code {
				t.Errorf("exit %d, want %d\nstderr: %s", code, tc.Code, stderr)
			}
			if !strings.Contains(stderr, tc.Stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.Stderr, stderr)
			}
			Golden(t, tc.Name, stdout)
		})
	}
}

// Golden holds got against testdata/<name>.golden.
func Golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if got == "" {
			os.Remove(path)
			return
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil && got != "" {
		t.Fatalf("%v (run the test with -update to write it)", err)
	}
	if got != string(want) {
		t.Errorf("stdout differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// ReadJSON decodes the file a command wrote at path into v.
func ReadJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

var flagLineRE = regexp.MustCompile(`(?m)^  -([a-z][a-z0-9-]*)`)

// FlagNames holds the flag names `-h` lists, one a line, against
// testdata/flags.golden: the evidence of which options a binary has.
func FlagNames(t *testing.T, run Run) {
	t.Helper()
	code, _, usage := Exec(t, run, "-h")
	if code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
	var names strings.Builder
	for _, m := range flagLineRE.FindAllStringSubmatch(usage, -1) {
		names.WriteString(m[1] + "\n")
	}
	Golden(t, "flags", names.String())
}
