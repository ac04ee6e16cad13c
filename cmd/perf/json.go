package main

import (
	"fmt"
	"io"
)

// jsonCheck is `perf json`: every argument must be a non-empty,
// well-formed JSON file. The smoke targets gate their -profile-json,
// -trace-out, -stats and SARIF artifacts with it, without a jq
// dependency. Exit 1 names the first file that is not.
func jsonCheck(paths []string, stdout, stderr io.Writer) int {
	if len(paths) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	for _, path := range paths {
		n, err := readJSON(path, new(any))
		if err != nil {
			fmt.Fprintln(stderr, "perf json:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s: ok (%d bytes)\n", path, n)
	}
	return 0
}
