package main

import (
	"math"
	"slices"
)

// metricDef is one metric of the benchmark. End-to-end metrics are printed by
// untraced runs and carry the bound by which their median may worsen before a
// change counts as a regression; per-layer metrics are printed by traced runs,
// each with the end-to-end metrics and workloads it should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Layer  bool
	// Moves is "METRICS on WORKLOADS", clauses joined by "; " (a clause
	// may start with "not"), or "none: why" for a count.
	Moves string
}

// The order here is the print order. BENCHMARK.json and README.md list the
// same metrics; TestMetricsMatchBenchmarkJSONAndReadme keeps the three in
// step.
var metricDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "us_per_round", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "alloc_b_per_round", Unit: "B", Better: "lower", Bound: 0.20},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},

	{Name: "sim_rounds", Unit: "count", Better: "lower", Layer: true,
		Moves: "none: exact model count"},
	{Name: "sim_msgs", Unit: "count", Better: "lower", Layer: true,
		Moves: "none: exact model count"},

	{Name: "ncc.barrier_ns_per_node_round", Unit: "ns", Better: "lower", Layer: true,
		Moves: "us_per_round on mst-n64, mis-coloring-n2048, faulted-mix; not on engine-dense-n65536"},
	{Name: "ncc.round_us", Unit: "us", Better: "lower", Layer: true,
		Moves: "us_per_round on mst-n64, mis-coloring-n2048, faulted-mix"},
	{Name: "ncc.deliver_ns_per_msg", Unit: "ns", Better: "lower", Layer: true,
		Moves: "us_per_round on engine-dense-n65536"},
	{Name: "ncc.deliver_frac", Unit: "frac", Better: "lower", Layer: true,
		Moves: "us_per_round on engine-dense-n65536"},
	{Name: "ncc.imbalance_us_per_round", Unit: "us", Better: "lower", Layer: true,
		Moves: "us_per_round on mis-coloring-n2048, engine-dense-n65536"},
	{Name: "ncc.active_frac", Unit: "frac", Better: "higher", Layer: true,
		Moves: "none: count that predicts what active-set rounds can save"},
	{Name: "ncc.quiet_round_frac", Unit: "frac", Better: "lower", Layer: true,
		Moves: "none: count that predicts what active-set rounds can save"},
	{Name: "ncc.msgs_per_node_round", Unit: "count", Better: "higher", Layer: true,
		Moves: "none: count that predicts what active-set rounds can save"},

	{Name: "comm.aab_us_per_op", Unit: "us", Better: "lower", Layer: true,
		Moves: "us_per_round on mis-coloring-n2048, mst-n64"},
	{Name: "comm.aab_rounds_per_op", Unit: "count", Better: "lower", Layer: true,
		Moves: "none: count"},
	{Name: "comm.aggregate_us_per_op", Unit: "us", Better: "lower", Layer: true,
		Moves: "us_per_round on mis-coloring-n2048, mst-n64"},
	{Name: "comm.aggregate_rounds_per_op", Unit: "count", Better: "lower", Layer: true,
		Moves: "none: count"},
	{Name: "comm.multicast_us_per_op", Unit: "us", Better: "lower", Layer: true,
		Moves: "us_per_round on mis-coloring-n2048, mst-n64"},
	{Name: "comm.multicast_rounds_per_op", Unit: "count", Better: "lower", Layer: true,
		Moves: "none: count"},

	{Name: "algo.pre_ms", Unit: "ms", Better: "lower", Layer: true,
		Moves: "us_per_round on mis-coloring-n2048, engine-dense-n65536"},
	{Name: "algo.post_ms", Unit: "ms", Better: "lower", Layer: true,
		Moves: "us_per_round on mis-coloring-n2048"},
	{Name: "algo.ns_per_node_round", Unit: "ns", Better: "lower", Layer: true,
		Moves: "us_per_round on mst-n64, mis-coloring-n2048"},
	{Name: "algo.over_barrier", Unit: "ratio", Better: "lower", Layer: true,
		Moves: "us_per_round on mst-n64, mis-coloring-n2048"},

	{Name: "graph.build_ms", Unit: "ms", Better: "lower", Layer: true,
		Moves: "us_per_round on nccd-mix"},
	{Name: "faultmodel.build_ms", Unit: "ms", Better: "lower", Layer: true,
		Moves: "us_per_round on faulted-mix"},
	{Name: "faultmodel.dropped_frac", Unit: "frac", Better: "lower", Layer: true,
		Moves: "none: count"},
	{Name: "faultmodel.down_frac", Unit: "frac", Better: "lower", Layer: true,
		Moves: "none: count"},

	{Name: "scenario.runone_ms", Unit: "ms", Better: "lower", Layer: true,
		Moves: "us_per_round on mst-n64, mis-coloring-n2048, faulted-mix"},
	{Name: "scenario.l4_over_l3", Unit: "ratio", Better: "lower", Layer: true,
		Moves: "us_per_round on nccd-mix"},

	{Name: "obs.trace_overhead_frac", Unit: "frac", Better: "lower", Layer: true,
		Moves: "us_per_round on nccd-mix, cluster-mix"},
	{Name: "obs.trace_bytes_per_round", Unit: "B", Better: "lower", Layer: true,
		Moves: "alloc_b_per_round on nccd-mix"},

	{Name: "service.miss_p50_ms", Unit: "ms", Better: "lower", Layer: true,
		Moves: "us_per_round on nccd-mix, cluster-mix"},
	{Name: "service.miss_p95_ms", Unit: "ms", Better: "lower", Layer: true,
		Moves: "us_per_round on nccd-mix, cluster-mix"},
	{Name: "service.hit_p50_ms", Unit: "ms", Better: "lower", Layer: true,
		Moves: "alloc_b_per_round on nccd-mix, cluster-mix"},
	{Name: "service.hit_p95_ms", Unit: "ms", Better: "lower", Layer: true,
		Moves: "alloc_b_per_round on nccd-mix, cluster-mix"},
	{Name: "service.submit_ms_p50", Unit: "ms", Better: "lower", Layer: true,
		Moves: "us_per_round on nccd-mix"},
	{Name: "service.first_line_ms_p50", Unit: "ms", Better: "lower", Layer: true,
		Moves: "us_per_round on nccd-mix"},
	{Name: "service.tail_ms_p50", Unit: "ms", Better: "lower", Layer: true,
		Moves: "us_per_round on nccd-mix"},
	{Name: "service.hit_submit_ms_p50", Unit: "ms", Better: "lower", Layer: true,
		Moves: "alloc_b_per_round on nccd-mix"},
	{Name: "service.job_latency_ms_mean", Unit: "ms", Better: "lower", Layer: true,
		Moves: "us_per_round on nccd-mix"},
	{Name: "service.http_overhead_ms", Unit: "ms", Better: "lower", Layer: true,
		Moves: "us_per_round on nccd-mix"},
	{Name: "service.cache_hit_ratio", Unit: "frac", Better: "higher", Layer: true,
		Moves: "none: count"},
	{Name: "service.coalesced_total", Unit: "count", Better: "lower", Layer: true,
		Moves: "none: count"},
	{Name: "service.refused_frac", Unit: "frac", Better: "lower", Layer: true,
		Moves: "none: count"},
	{Name: "service.l5_over_l4", Unit: "ratio", Better: "lower", Layer: true,
		Moves: "us_per_round on nccd-mix"},

	{Name: "service.coord_dispatch_ms_mean", Unit: "ms", Better: "lower", Layer: true,
		Moves: "us_per_round on cluster-mix"},
	{Name: "service.coord_dispatch_cache_hits", Unit: "count", Better: "lower", Layer: true,
		Moves: "us_per_round on cluster-mix"},
	{Name: "service.l6_over_l5", Unit: "ratio", Better: "lower", Layer: true,
		Moves: "us_per_round on cluster-mix"},

	{Name: "runtime.alloc_bytes_per_msg", Unit: "B", Better: "lower", Layer: true,
		Moves: "alloc_b_per_round, peak_rss_mb on engine-dense-n65536"},
	{Name: "runtime.gc_cpu_frac", Unit: "frac", Better: "lower", Layer: true,
		Moves: "us_per_round on engine-dense-n65536"},
	{Name: "runtime.sched_latency_us_p50", Unit: "us", Better: "lower", Layer: true,
		Moves: "us_per_round on mst-n64"},

	{Name: "bench.trace_overhead_frac", Unit: "frac", Better: "lower", Layer: true,
		Moves: "none: the cost of tracing"},
}

// defsFor returns the end-to-end (layer false) or per-layer metric set.
func defsFor(layer bool) []metricDef {
	var out []metricDef
	for _, d := range metricDefs {
		if d.Layer == layer {
			out = append(out, d)
		}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// usPerRound is the host time per simulated round of the executed (non-hit)
// operations: their summed time over their summed rounds.
func usPerRound(ss []sample) float64 {
	var ms float64
	var rounds int64
	for _, s := range ss {
		if !s.hit {
			ms += s.ms
			rounds += s.rounds
		}
	}
	return ratio(ms*1e3, float64(rounds))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
