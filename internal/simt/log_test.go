package simt

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// logSizes returns the record counts on and either side of every chunk
// boundary of a Log, from the empty log to past three capped chunks.
func logSizes() []int {
	sizes := []int{0, 1}
	total, capped := 0, 0
	for chunk := logFirstChunk; capped < 3; chunk = min(2*chunk, LogChunkCap) {
		total += chunk
		sizes = append(sizes, total-1, total, total+1)
		if chunk == LogChunkCap {
			capped++
		}
	}
	return sizes
}

// collect returns the log's records in visit order.
func collect(l *Log[int]) []int {
	var got []int
	l.Each(func(v *int) { got = append(got, *v) })
	return got
}

// TestLogMatchesSlice holds the Log to the plain slice it replaces: for
// every size around a chunk boundary, appending the values visits exactly
// what a slice of them holds, in order.
func TestLogMatchesSlice(t *testing.T) {
	sizes := logSizes()
	if last := sizes[len(sizes)-1]; last < 3*LogChunkCap {
		t.Fatalf("sizes end at %d, short of three capped chunks", last)
	}
	for _, n := range sizes {
		var l Log[int]
		var want []int
		for i := 0; i < n; i++ {
			l.Append(i)
			want = append(want, i)
		}
		if l.Len() != n {
			t.Fatalf("n=%d: Len() = %d after %d appends", n, l.Len(), n)
		}
		if got := collect(&l); !slices.Equal(got, want) {
			t.Fatalf("n=%d: visited %d records, want %d; first difference at %d",
				n, len(got), len(want), firstDiff(got, want))
		}
	}
}

func firstDiff(a, b []int) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestLogPointersStayValid: a record is never moved, so the pointer Each
// hands out still names the record after the log has grown by chunks.
func TestLogPointersStayValid(t *testing.T) {
	var l Log[int]
	l.Append(7)
	var first *int
	l.Each(func(v *int) { first = v })
	for i := 0; i < 2*LogChunkCap; i++ {
		l.Append(i)
	}
	*first = 8
	if got := collect(&l)[0]; got != 8 {
		t.Errorf("the first record reads %d through the log after a write through its old pointer, want 8", got)
	}
}

// TestLaunchListsAreLogs keeps the next launch-long list a Log rather than
// one more append-grown slice: in the non-test code of this package and of
// the recorders (internal/obs) no slice of events, samples or trace
// records is declared, made or appended to, and the Log type is declared
// once (TestOnePairInSource is the pattern).
func TestLaunchListsAreLogs(t *testing.T) {
	var code strings.Builder
	for _, dir := range []string{".", "../obs"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(string(data), "\n") {
				if !strings.HasPrefix(strings.TrimSpace(line), "//") {
					code.WriteString(line + "\n")
				}
			}
		}
	}
	for what, want := range map[string]int{
		`\[\](simt\.)?(Event|Sample|traceRec)\b`: 0,
		`\btype Log\[`:                           1,
	} {
		if got := regexp.MustCompile(what).FindAllString(code.String(), -1); len(got) != want {
			t.Errorf("%d matches of %s in internal/simt and internal/obs, want %d: %q", len(got), what, want, got)
		}
	}
}
