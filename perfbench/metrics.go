package main

import "sort"

// metricDef names one reported metric. The lists below and BENCHMARK.json
// must agree; the self-test checks that they do.
type metricDef struct {
	name, unit, better string
}

// endToEnd is reported on every workload with tracing off: medians over the
// run's plain repetitions. NOTES.md gives each workload's definition of
// the timed phase.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is reported on every workload by a traced run: medians over its
// traced repetitions. A layer the workload does not run reports 0.
// *.est_s values are computed (count × calibrated unit cost), not timed.
var perLayer = []metricDef{
	{"ephem.propagations", "count", "lower"},
	{"ephem.hit_ratio", "ratio", "higher"},
	{"ephem.ns_per_sat", "ns", "lower"},
	{"ephem.est_s", "s", "lower"},

	{"netgraph.sssp_queries", "count", "lower"},
	{"netgraph.path_queries", "count", "lower"},
	{"netgraph.isl_queries", "count", "lower"},
	{"netgraph.freezes", "count", "lower"},
	{"netgraph.delta_freeze_ratio", "ratio", "higher"},
	{"netgraph.sssp_us", "us", "lower"},
	{"netgraph.freeze_ms", "ms", "lower"},
	{"netgraph.delta_freeze_ms", "ms", "lower"},
	{"netgraph.est_s", "s", "lower"},

	{"experiments.fig12_s", "s", "lower"},
	{"experiments.fig45_s", "s", "lower"},
	{"experiments.fig67_s", "s", "lower"},
	{"meetup.handoffs_minmax", "count", "lower"},
	{"meetup.handoffs_sticky", "count", "lower"},

	{"fleet.start_s", "s", "lower"},
	{"fleet.step_s", "s", "lower"},
	{"fleet.self_est_s", "s", "lower"},
	{"fleet.session_epochs_per_s", "1/s", "higher"},
	{"fleet.epoch_ms_p50", "ms", "lower"},
	{"fleet.epoch_ms_tail", "ms", "lower"},
	{"fleet.epoch_tail_pct", "%", "higher"},
	{"fleet.epoch_samples", "count", "higher"},
	{"fleet.replan_us_p50", "us", "lower"},
	{"fleet.replan_us_p99", "us", "lower"},
	{"fleet.shard_imbalance", "ratio", "lower"},
	{"fleet.alloc_b_per_session_epoch", "B", "lower"},
	{"fleet.handoffs", "count", "lower"},
	{"fleet.placements", "count", "higher"},
	{"fleet.rejections", "count", "lower"},

	{"serve.sim_req_per_s", "1/s", "higher"},
	{"serve.nearest.run_s", "s", "lower"},
	{"serve.least_loaded.run_s", "s", "lower"},
	{"serve.sticky.run_s", "s", "lower"},
	{"serve.new_engine_s", "s", "lower"},
	{"serve.feed_s", "s", "lower"},
	{"serve.result_s", "s", "lower"},
	{"serve.parallel_slices", "count", "higher"},
	{"serve.serial_slices", "count", "lower"},
	{"serve.alloc_b_per_req", "B", "lower"},
	{"serve.nearest.p99_ms", "ms", "lower"},
	{"serve.least_loaded.p99_ms", "ms", "lower"},
	{"serve.sticky.p99_ms", "ms", "lower"},
	{"serve.nearest.shed_pct", "%", "lower"},
	{"serve.least_loaded.shed_pct", "%", "lower"},
	{"serve.sticky.shed_pct", "%", "lower"},

	{"obs.overhead_pct", "%", "lower"},

	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},

	{"unattributed_s", "s", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

// layerMetrics folds a traced run's repetitions into the per-layer values:
// medians of the traced repetitions' raw values, plus the comparisons that
// need several modes (trace and obs overhead against the plain
// repetitions) and the fleet epoch percentiles over every repetition's
// epochs.
func layerMetrics(byMode map[string][]sample) map[string]float64 {
	traced := byMode[modeTraced]
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.name] = median(collect(traced, d.name))
	}
	plainWall := median(collect(byMode[modePlain], "wall_s"))
	out["bench.trace_overhead_pct"] = pctOver(median(collect(traced, "wall_s")), plainWall)
	out["obs.overhead_pct"] = 0
	if on := byMode[modeObsOn]; len(on) > 0 {
		out["obs.overhead_pct"] = pctOver(median(collect(on, "wall_s")), plainWall)
	}

	var epochs []float64
	for _, s := range append(append([]sample(nil), byMode[modePlain]...), traced...) {
		epochs = append(epochs, s.EpochMs...)
	}
	out["fleet.epoch_ms_p50"], out["fleet.epoch_ms_tail"], out["fleet.epoch_tail_pct"] = 0, 0, 0
	out["fleet.epoch_samples"] = float64(len(epochs))
	if len(epochs) > 0 {
		p50, tail, pct := epochPercentiles(epochs)
		out["fleet.epoch_ms_p50"], out["fleet.epoch_ms_tail"], out["fleet.epoch_tail_pct"] = p50, tail, pct
	}
	return out
}

// epochPercentiles returns the median and the tail: the highest percentile
// with at least ten samples beyond it (nearest rank), or the maximum when
// there are too few samples for one.
func epochPercentiles(xs []float64) (p50, tail, pct float64) {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	p50 = median(c)
	i := n - 11
	if i < 0 {
		return p50, c[n-1], 100
	}
	return p50, c[i], 100 * float64(i+1) / float64(n)
}

func pctOver(v, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (v/base - 1)
}
