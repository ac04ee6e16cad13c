package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 7}, 5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its argument: %v", xs)
	}
}

// TestTail pins the "highest percentile with at least ten samples beyond
// it" rule on samples 1..n in random order, where the value at a
// percentile can be read off.
func TestTail(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct int
		wantVal float64
	}{
		{5, 0, 0},
		{10, 0, 0},
		{12, 16, 2},
		{20, 50, 10},
		{40, 75, 30},
		{100, 90, 90},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rand.New(rand.NewSource(1)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		pct, val := tail(xs)
		if pct != tc.wantPct || val != tc.wantVal {
			t.Errorf("tail of %d samples = p%d %v, want p%d %v", tc.n, pct, val, tc.wantPct, tc.wantVal)
		}
		beyond := 0
		for _, x := range xs {
			if x > val {
				beyond++
			}
		}
		if pct > 0 && beyond != tailSamples {
			t.Errorf("tail of %d samples leaves %d beyond it, want %d", tc.n, beyond, tailSamples)
		}
	}
}

// TestSelfTimes: a root with two siblings, one of which has a child.
//
//	root  [0,100)
//	  a   [10,40)
//	    a1 [15,25)
//	  b   [50,90)
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "bench.op", id: 0, parent: -1, start: 0, end: 100},
		{name: "x.a", id: 1, parent: 0, start: 10, end: 40},
		{name: "y.a1", id: 2, parent: 1, start: 15, end: 25},
		{name: "x.a", id: 3, parent: 0, start: 50, end: 90},
	}
	want := []int64{30, 20, 10, 40}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
	// A later op's spans, taken alone, must not reach back into earlier
	// ones through their parent ids.
	later := []span{
		{name: "bench.op", id: 4, parent: -1, start: 200, end: 260},
		{name: "x.a", id: 5, parent: 4, start: 210, end: 250},
	}
	if got := selfTimes(later); got[0] != 20 || got[1] != 40 {
		t.Errorf("self times of a later op = %v, want [20 40]", got)
	}
	totals := totalsByName(spans)
	if xa := totals["x.a"]; xa.calls != 2 || xa.self != 60 {
		t.Errorf("x.a totals = %+v, want 2 calls, 60 ns self", xa)
	}
	var sum int64
	for _, tot := range totals {
		sum += tot.self
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}

func TestTracerNesting(t *testing.T) {
	var none *tracer
	if id := none.begin("x.y"); id != -1 || none.end(id) != 0 {
		t.Errorf("a nil tracer must record nothing")
	}
	tr := newTracer(4)
	tr.op = 3
	root := tr.begin("bench.op")
	a := tr.begin("x.a")
	tr.end(a)
	b := tr.begin("x.b")
	c := tr.begin("y.c")
	tr.end(c)
	tr.end(b)
	tr.end(root)
	wantParents := []int32{-1, root, root, b}
	for i, s := range tr.spans {
		if s.parent != wantParents[i] || s.op != 3 || s.end < s.start {
			t.Errorf("span %d (%s): parent %d op %d [%d,%d], want parent %d op 3", i, s.name, s.parent, s.op, s.start, s.end, wantParents[i])
		}
	}
	if tr.open != -1 {
		t.Errorf("a span is still open after every end: %d", tr.open)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChrome(path, tr.spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			Args          struct{ ID, Parent, Op int32 }
		}
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.TraceEvents) != 4 || file.TraceEvents[3].Name != "y.c" || file.TraceEvents[3].Cat != "y" ||
		file.TraceEvents[3].Ph != "X" || file.TraceEvents[3].Args.Parent != b {
		t.Errorf("trace file does not hold the spans: %+v", file.TraceEvents)
	}
}
