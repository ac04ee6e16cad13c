package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// At this commit main owns the process surface, so run builds the
// command once and executes it; the refactor replaces this file with the
// command's own run(args, stdout, stderr).
var binary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "clitest")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binary = filepath.Join(dir, "cmd")
	if out, err := exec.Command("go", "build", "-o", binary, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(args []string, stdout, stderr io.Writer) int {
	cmd := exec.Command(binary, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		return exit.ExitCode()
	case err != nil:
		fmt.Fprintln(stderr, err)
		return -1
	}
	return 0
}
