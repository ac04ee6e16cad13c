package main

// metricDef is one metric the runner emits. BENCHMARK.json names the
// same metrics with the same units and bounds; schema_test.go holds the
// two lists together.
type metricDef struct {
	name, unit string
	// bound is the share of the base value by which an end-to-end metric
	// may get worse before -compare reports a regression (every metric
	// is lower-is-better). Zero on per-layer metrics.
	bound float64
	// exact marks a per-layer count that depends only on the seed, so
	// -compare requires it equal.
	exact bool
}

// endToEnd is reported by every workload, measured with tracing off.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "op_wall_s", unit: "s", bound: 0.25},
	{name: "cpu_s_per_op", unit: "s", bound: 0.25},
	{name: "alloc_mb_per_op", unit: "MB", bound: 0.03},
	{name: "allocs_per_op", unit: "count", bound: 0.03},
	{name: "heap_live_mb", unit: "MB", bound: 0.15},
}

// perLayer is reported by the traced run of every workload. The layer is
// the package under internal/ the number belongs to; bench.* describe
// the run itself.
var perLayer = []metricDef{
	{name: "ir.parse_us", unit: "us"},
	{name: "ir.print_us", unit: "us"},
	{name: "ir.clone_us", unit: "us"},
	{name: "ir.verify_us", unit: "us"},
	{name: "corpus.generate_us", unit: "us"},
	{name: "workloads.build_ms", unit: "ms"},
	{name: "core.compile_base_us", unit: "us"},
	{name: "core.compile_spec_us", unit: "us"},
	{name: "core.compile_safe_us", unit: "us"},
	{name: "core.diagnose_us", unit: "us"},
	{name: "core.autoannotate_us", unit: "us"},
	{name: "core.pass_us.pdom", unit: "us"},
	{name: "core.pass_us.predict", unit: "us"},
	{name: "core.pass_us.deconflict", unit: "us"},
	{name: "core.pass_us.alloc", unit: "us"},
	{name: "core.pass_us.barrier-safety", unit: "us"},
	{name: "core.pass_us.analyze", unit: "us"},
	{name: "core.instrs_out", unit: "count", exact: true},
	{name: "core.fallbacks", unit: "count", exact: true},
	{name: "analyze.analyze_us", unit: "us"},
	{name: "analyze.diagnostics", unit: "count", exact: true},
	{name: "ccache.miss_us", unit: "us"},
	{name: "ccache.hit_us", unit: "us"},
	{name: "ccache.hits", unit: "count", exact: true},
	{name: "ccache.misses", unit: "count", exact: true},
	{name: "ccache.bytes", unit: "count", exact: true},
	{name: "simt.newmachine_us", unit: "us"},
	{name: "simt.run_s", unit: "s"},
	{name: "simt.issue_ns", unit: "ns"},
	{name: "simt.sim_mcycles_per_s", unit: "Mcycle/s"},
	{name: "simt.sim_issues", unit: "count", exact: true},
	{name: "simt.sim_cycles", unit: "count", exact: true},
	{name: "simt.active_lanes", unit: "count", exact: true},
	{name: "simt.simt_eff_pct", unit: "%", exact: true},
	{name: "simt.mem_transactions", unit: "count", exact: true},
	{name: "simt.cache_hit_pct", unit: "%", exact: true},
	{name: "simt.barrier_waits", unit: "count", exact: true},
	{name: "simt.issue_ns.flat", unit: "ns"},
	{name: "simt.issue_ns.interleave", unit: "ns"},
	{name: "simt.issue_ns.stack", unit: "ns"},
	{name: "simt.issue_ns.grid_greedy", unit: "ns"},
	{name: "simt.issue_ns.grid_oldest", unit: "ns"},
	{name: "simt.issue_ns.grid_youngest", unit: "ns"},
	{name: "simt.issue_ns.grid_obe", unit: "ns"},
	{name: "simt.issue_ns.grid_random", unit: "ns"},
	{name: "simt.issue_ns.alu", unit: "ns"},
	{name: "simt.issue_ns.mem_coalesced", unit: "ns"},
	{name: "simt.issue_ns.mem_scattered", unit: "ns"},
	{name: "simt.issue_ns.barrier", unit: "ns"},
	{name: "simt.issue_ns.branch", unit: "ns"},
	{name: "simt.issue_ns.call", unit: "ns"},
	{name: "simt.launch_us.empty_sm1", unit: "us"},
	{name: "simt.launch_us.empty_sm8", unit: "us"},
	{name: "simt.relaunch_us.empty_sm1", unit: "us"},
	{name: "simt.relaunch_us.empty_sm8", unit: "us"},
	{name: "simt.run_s.sm8", unit: "s"},
	{name: "simt.events_overhead_x", unit: "x"},
	{name: "obs.profile_overhead_x", unit: "x"},
	{name: "obs.trace_overhead_x", unit: "x"},
	{name: "obs.sampler_overhead_x.s1", unit: "x"},
	{name: "obs.sampler_overhead_x.s16", unit: "x"},
	{name: "obs.sampler_overhead_x.s256", unit: "x"},
	{name: "obs.writetrace_s", unit: "s"},
	{name: "obs.profile_write_s", unit: "s"},
	{name: "obs.trace_bytes", unit: "count", exact: true},
	{name: "obs.trace_events", unit: "count", exact: true},
	{name: "diffcheck.check_us", unit: "us"},
	{name: "diffcheck.compare_us", unit: "us"},
	{name: "diffcheck.findings", unit: "count", exact: true},
	{name: "harness.figure7_s", unit: "s"},
	{name: "harness.figure9_s", unit: "s"},
	{name: "harness.figure10_s", unit: "s"},
	{name: "harness.funnel_s", unit: "s"},
	{name: "harness.glue_frac", unit: "frac"},
	{name: "bench.op_wall_tail_s", unit: "s"},
	{name: "bench.op_samples", unit: "count"},
	{name: "bench.trace_overhead_frac", unit: "frac"},
	{name: "bench.trace_coverage", unit: "frac"},
	{name: "bench.calib_drift_frac", unit: "frac"},
	{name: "bench.peak_rss_mb", unit: "MB"},
}

// metricValue is one reported number, in the form the last output line
// carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one run against a list of metricDefs.
type metricSet struct {
	defs   []metricDef
	values map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]metricValue, len(defs))}
}

// set records a value; naming a metric the list does not hold is a bug
// in the benchmark.
func (s *metricSet) set(name string, v float64) {
	for _, d := range s.defs {
		if d.name == name {
			s.values[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}

// missing lists declared metrics no value was recorded for.
func (s *metricSet) missing() []string {
	var out []string
	for _, d := range s.defs {
		if _, ok := s.values[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}
