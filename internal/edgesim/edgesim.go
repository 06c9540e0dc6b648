// Package edgesim simulates request-level edge computing on the
// constellation: requests arrive from a ground site, ride the uplink to a
// satellite-server, queue for CPU, and return. It answers the §3.1
// operational question the geometric analysis cannot: at what request load
// does the latency advantage of the in-orbit edge survive queueing?
package edgesim

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/compute"
	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/serve"
	"repro/internal/stats"
)

// Workload describes the request stream from one ground site.
type Workload struct {
	// ArrivalPerSec is the Poisson request rate.
	ArrivalPerSec float64
	// ServiceSec is the CPU time one request needs on one core.
	ServiceSec float64
	// Seed fixes the arrival/jitter draw.
	Seed int64
}

// Validate reports whether the workload is usable.
func (w Workload) Validate() error {
	if w.ArrivalPerSec <= 0 {
		return fmt.Errorf("edgesim: arrival rate must be positive, got %v", w.ArrivalPerSec)
	}
	if w.ServiceSec <= 0 {
		return fmt.Errorf("edgesim: service time must be positive, got %v", w.ServiceSec)
	}
	return nil
}

// Policy selects which visible satellite serves a request. The selection
// logic itself lives in internal/serve; these values are thin adapters over
// the shared routing-policy interface.
type Policy int

const (
	// Nearest always uses the lowest-propagation satellite — minimal
	// propagation, but one server absorbs the whole site.
	Nearest Policy = iota
	// LeastBusy picks the visible satellite whose server frees up first —
	// spreads load across the footprint at a small propagation cost.
	LeastBusy
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	if p == Nearest {
		return "nearest"
	}
	return "least-busy"
}

// shared returns the internal/serve policy this value adapts.
func (p Policy) shared() serve.Policy {
	if p == LeastBusy {
		return serve.LeastLoaded()
	}
	return serve.Nearest()
}

// Config assembles a simulation.
type Config struct {
	// Site is the requesting ground location.
	Site geo.LatLon
	// CoresPerSat is each satellite-server's parallel capacity: the
	// simulator models CoresPerSat independent cores per satellite, each
	// serving one request at a time (M/G/k, earliest-free-core dispatch).
	CoresPerSat int
	// Policy selects the attachment strategy.
	Policy Policy
	// DurationSec bounds the arrival window; the candidate satellites are
	// frozen at t=0 (windows of tens of seconds — a satellite moves
	// ~7.5 km/s, small against the coverage cone).
	DurationSec float64
}

// Result summarises the run.
type Result struct {
	// Completed counts requests served (every admitted request completes).
	Completed int
	// ResponseMs aggregates end-to-end response times (up + queue +
	// service + down).
	ResponseMs *stats.CDF
	// ServersUsed counts distinct satellites that served requests.
	ServersUsed int
	// MaxUtilization is the busiest server's utilisation over [0, last
	// completion].
	MaxUtilization float64
}

// Run simulates the workload against the constellation as a one-site
// internal/serve run: an unbounded queue per satellite, and one refresh
// slice as wide as the arrival window, so every arrival sees the t=0
// candidate set.
func Run(c *constellation.Constellation, cfg Config, w Workload) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.CoresPerSat <= 0 {
		return Result{}, fmt.Errorf("edgesim: cores must be positive")
	}
	if cfg.DurationSec <= 0 {
		return Result{}, fmt.Errorf("edgesim: duration must be positive")
	}
	if !cfg.Site.Valid() {
		return Result{}, fmt.Errorf("edgesim: invalid site %v", cfg.Site)
	}

	server := compute.DefaultServerSpec()
	server.Cores = cfg.CoresPerSat
	eng, err := serve.NewEngine(c, serve.Config{
		Sites:      []serve.Site{{Name: "edge", Loc: cfg.Site, Weight: 1}},
		Policy:     cfg.Policy.shared(),
		Server:     server,
		QueueCap:   -1,
		RefreshSec: cfg.DurationSec,
		Workers:    1, // one site: nearest loads one satellite, least-loaded replays serially
	})
	if err != nil {
		return Result{}, fmt.Errorf("edgesim: %w", err)
	}
	rng := rand.New(rand.NewSource(w.Seed))
	var reqs []serve.Request
	for t := rng.ExpFloat64() / w.ArrivalPerSec; t < cfg.DurationSec; t += rng.ExpFloat64() / w.ArrivalPerSec {
		reqs = append(reqs, serve.Request{TSec: t, ServiceMs: w.ServiceSec * 1000})
	}
	if err := eng.Feed(reqs); err != nil {
		return Result{}, fmt.Errorf("edgesim: %w", err)
	}
	eng.RunUntil(cfg.DurationSec)
	for eng.Result().InFlight > 0 {
		eng.RunUntil(eng.Now() + cfg.DurationSec)
	}

	r := eng.Result()
	if r.Shed[serve.ShedNoCoverage] > 0 {
		return Result{}, fmt.Errorf("edgesim: no satellite in view of %v", cfg.Site)
	}
	res := Result{Completed: r.Served, ResponseMs: r.LatencyMs, ServersUsed: r.SatsUsed}
	if r.LastDoneSec > 0 {
		// serve divides busy time by [0, Now]; rescale to [0, last completion].
		res.MaxUtilization = slices.Max(r.Utilization) * eng.Now() / r.LastDoneSec
	}
	return res, nil
}

// LoadSweepRow is one arrival-rate point.
type LoadSweepRow struct {
	ArrivalPerSec  float64
	P50Ms, P99Ms   float64
	ServersUsed    int
	MaxUtilization float64
}

// LoadSweep runs the workload at increasing arrival rates under the policy,
// exposing where queueing erodes the propagation advantage.
func LoadSweep(c *constellation.Constellation, cfg Config, base Workload, rates []float64) ([]LoadSweepRow, error) {
	if len(rates) == 0 {
		rates = []float64{10, 50, 100, 200, 400}
	}
	var out []LoadSweepRow
	for _, rate := range rates {
		w := base
		w.ArrivalPerSec = rate
		r, err := Run(c, cfg, w)
		if err != nil {
			return nil, err
		}
		row := LoadSweepRow{
			ArrivalPerSec:  rate,
			ServersUsed:    r.ServersUsed,
			MaxUtilization: r.MaxUtilization,
		}
		if r.ResponseMs.N() > 0 {
			row.P50Ms = r.ResponseMs.Median()
			row.P99Ms = r.ResponseMs.Quantile(0.99)
		}
		out = append(out, row)
	}
	return out, nil
}
