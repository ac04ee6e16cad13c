package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles holds results file b against base a: every end-to-end
// metric of every workload within its bound, every result digest and
// exact count equal. It returns the exit code: 0 agree, 1 out of bounds,
// 2 a file that cannot be used.
func compareFiles(a, b string, stdout, stderr io.Writer) int {
	var base, next results
	for _, err := range []error{readJSON(a, &base), readJSON(b, &next)} {
		if err != nil {
			fmt.Fprintln(stderr, "bench -compare:", err)
			return 2
		}
	}
	bad := 0
	fmt.Fprintf(stdout, "%-14s %-16s %14s %14s %12s %7s\n", "workload", "metric", "A (base)", "B", "B/A", "bound")
	for _, w := range allWorkloads {
		wa, wb := base.Workloads[w.name], next.Workloads[w.name]
		if wa.EndToEnd == nil || wa.PerLayer == nil || wb.EndToEnd == nil || wb.PerLayer == nil {
			fmt.Fprintf(stderr, "bench -compare: workload %s is missing from a file\n", w.name)
			return 2
		}
		for _, d := range endToEnd {
			va, oka := wa.EndToEnd.Metrics[d.name]
			vb, okb := wb.EndToEnd.Metrics[d.name]
			if !oka || !okb || va.Value <= 0 {
				fmt.Fprintf(stderr, "bench -compare: %s has no usable %s\n", w.name, d.name)
				return 2
			}
			ratio := vb.Value / va.Value
			verdict := ""
			if ratio-1 > d.bound {
				verdict = "  WORSE THAN BOUND"
				bad++
			}
			fmt.Fprintf(stdout, "%-14s %-16s %14.6g %14.6g %11.4fx %7.2f%s\n", w.name, d.name, va.Value, vb.Value, ratio, d.bound, verdict)
		}
		for _, pair := range [][2]*runRecord{{wa.EndToEnd, wb.EndToEnd}, {wa.PerLayer, wb.PerLayer}} {
			if pair[0].ResultDigest != pair[1].ResultDigest {
				fmt.Fprintf(stdout, "%-14s result_digest %s in A, %s in B  DIFFERENT RESULTS\n", w.name, pair[0].ResultDigest, pair[1].ResultDigest)
				bad++
			}
		}
		for _, d := range perLayer {
			if !d.exact {
				continue
			}
			va, vb := wa.PerLayer.Metrics[d.name].Value, wb.PerLayer.Metrics[d.name].Value
			if va != vb {
				fmt.Fprintf(stdout, "%-14s %-24s %.10g in A, %.10g in B  EXACT COUNT MOVED\n", w.name, d.name, va, vb)
				bad++
			}
		}
		if wa.EndToEnd.Failed+wa.PerLayer.Failed+wb.EndToEnd.Failed+wb.PerLayer.Failed > 0 {
			fmt.Fprintf(stdout, "%-14s has failed ops\n", w.name)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d comparisons out of bounds\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "B agrees with A: every end-to-end metric within its bound, every digest and exact count equal")
	return 0
}
