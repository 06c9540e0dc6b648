package ephem

import "repro/internal/obs"

// Metric families the engine maintains. Registered on the configured
// registry (obs.Default() unless overridden); several engines on one
// registry share families, so counters aggregate — use Engine.Stats for
// per-engine numbers.
type metricsSet struct {
	hits       *obs.Counter  // ephem_cache_hits_total
	misses     *obs.Counter  // ephem_cache_misses_total
	propagated *obs.Counter  // ephem_propagated_satellites_total
	frames     *obs.Gauge    // ephem_cache_frames
	propagateQ *obs.Quantile // ephem_propagate_ms — cache-miss batch latency
}

func newMetrics(reg *obs.Registry) *metricsSet {
	return &metricsSet{
		hits: reg.Counter("ephem_cache_hits_total",
			"Snapshot requests served from the keyframe cache."),
		misses: reg.Counter("ephem_cache_misses_total",
			"Snapshot requests that had to propagate the constellation."),
		propagated: reg.Counter("ephem_propagated_satellites_total",
			"Individual satellite position propagations performed."),
		frames: reg.Gauge("ephem_cache_frames",
			"Full-constellation frames currently held across cache tiers."),
		propagateQ: reg.Quantile("ephem_propagate_ms",
			"Streaming quantile of cache-miss propagation-batch latency in ms."),
	}
}
