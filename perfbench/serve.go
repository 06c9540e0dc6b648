package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/compute"
	"repro/internal/constellation"
	"repro/internal/ephem"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/serve"
)

// serveRun replays one request trace through every built-in routing policy
// in the ServePolicyStudy regime: 12 city sites, a 4000 req/s diurnal
// open-loop trace, 2-core satellite servers with a queue of 16, and 30 s
// snapshot refreshes. Simulated time is open loop; host time runs as fast
// as the engine allows.
type serveRun struct {
	size    string
	variant int
	obsOn   bool

	eng     *ephem.Engine
	sites   []serve.Site
	reqs    []serve.Request
	engines []*serve.Engine
	horizon float64

	results []serve.Result
	p99     []float64
	stats   []serve.EngineStats

	newEngineS, feedS, resultS float64
	runS                       []float64
	runAllocB                  uint64
}

const (
	serveRatePerSec = 4000
	serveSites      = 12
	serveSeedBase   = 17 // experiments.ServePolicyStudy's trace seed
)

func (s *serveRun) shape() (rate, horizon float64) {
	if s.size == sizeSmoke {
		return 1000, 30
	}
	return serveRatePerSec, 600
}

// setup builds the constellation and a shared ephemeris engine, generates
// the trace, and constructs one engine per policy.
func (s *serveRun) setup(tr *tracer) (float64, error) {
	t0 := time.Now()
	rate, horizon := s.shape()
	s.horizon = horizon
	tr.begin("setup.constellation")
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	tr.end()
	if err != nil {
		return 0, err
	}
	// The study's sharing pattern: one engine for all policies, sized like
	// the experiments package's pooled sweep engines.
	s.eng = ephem.New(c, ephem.Config{CacheFrames: 384, GridFrames: 128})
	s.sites = serve.SitesFromCities(serveSites)
	tr.begin("serve.Generate")
	s.reqs, err = serve.Generate(s.sites, serve.Workload{
		Seed:             serveSeedBase + int64(s.variant),
		RatePerSec:       rate,
		ServiceMedianMs:  20,
		DiurnalAmplitude: 0.6,
	}, horizon)
	tr.end()
	if err != nil {
		return 0, err
	}
	server := compute.DefaultServerSpec()
	server.Cores = 2
	var reg *obs.Registry
	if s.obsOn {
		reg = obs.NewRegistry()
	}
	ts := time.Now()
	for _, p := range serve.Policies() {
		tr.begin("serve.NewEngine")
		e, err := serve.NewEngine(c, serve.Config{
			Sites:      s.sites,
			Policy:     p,
			Server:     server,
			QueueCap:   16,
			RefreshSec: 30,
			Ephem:      s.eng,
			Registry:   reg,
		})
		tr.end()
		if err != nil {
			return 0, err
		}
		s.engines = append(s.engines, e)
	}
	s.newEngineS = time.Since(ts).Seconds()
	return time.Since(t0).Seconds(), nil
}

func (s *serveRun) timed(tr *tracer) error {
	var m0, m1 runtime.MemStats
	for i, e := range s.engines {
		name := metricPolicy(serve.Policies()[i].Name())
		t0 := time.Now()
		tr.begin("serve.Feed")
		err := e.Feed(s.reqs)
		tr.end()
		s.feedS += time.Since(t0).Seconds()
		if err != nil {
			return err
		}

		if tr != nil {
			runtime.ReadMemStats(&m0)
		}
		t0 = time.Now()
		tr.begin("serve." + name + ".RunUntil")
		// Run past the horizon so tail requests drain.
		e.RunUntil(s.horizon + 30)
		tr.end()
		s.runS = append(s.runS, time.Since(t0).Seconds())
		if tr != nil {
			runtime.ReadMemStats(&m1)
			s.runAllocB += m1.TotalAlloc - m0.TotalAlloc
		}

		t0 = time.Now()
		tr.begin("serve.Result")
		r := e.Result()
		p99 := r.LatencyMs.Quantile(0.99)
		tr.end()
		s.resultS += time.Since(t0).Seconds()
		s.results = append(s.results, r)
		s.p99 = append(s.p99, p99)
		s.stats = append(s.stats, e.Stats())
		s.engines[i] = nil // release the engine's arenas before the next policy
	}
	return nil
}

// metricPolicy turns a policy name into its metric-name form.
func metricPolicy(name string) string { return strings.ReplaceAll(name, "-", "_") }

// check verifies request conservation per policy and that every policy saw
// the same trace.
func (s *serveRun) check() []string {
	var fails []string
	if len(s.results) != len(serve.Policies()) {
		return append(fails, fmt.Sprintf("ran %d of %d policies", len(s.results), len(serve.Policies())))
	}
	for _, r := range s.results {
		if r.Offered != len(s.reqs) {
			fails = append(fails, fmt.Sprintf("%s: offered %d, trace has %d requests", r.Policy, r.Offered, len(s.reqs)))
		}
		if got := r.Served + r.ShedTotal() + r.InFlight; got != r.Offered {
			fails = append(fails, fmt.Sprintf("%s: served %d + shed %d + in flight %d = %d, offered %d",
				r.Policy, r.Served, r.ShedTotal(), r.InFlight, got, r.Offered))
		}
	}
	return fails
}

// digest covers each policy's accounting, latency distribution and
// per-satellite utilisation; the execution shape (slices, workers) depends
// on the host and is left out.
func (s *serveRun) digest() string {
	d := newDigester()
	d.add("trace", len(s.reqs))
	for _, r := range s.results {
		var shed []string
		for reason, n := range r.Shed {
			shed = append(shed, fmt.Sprintf("%s=%d", reason, n))
		}
		sort.Strings(shed)
		d.add(r.Policy, r.Offered, r.Served, r.InFlight, strings.Join(shed, ","), r.SatsUsed, r.PeakQueued)
		if r.LatencyMs.N() > 0 {
			d.add("latency", r.LatencyMs.N(), r.LatencyMs.Min(), r.LatencyMs.Median(),
				r.LatencyMs.Quantile(0.9), r.LatencyMs.Quantile(0.99), r.LatencyMs.Quantile(0.999), r.LatencyMs.Max())
		}
		for _, u := range r.Utilization {
			d.add("u", u)
		}
	}
	return d.sum()
}

func (s *serveRun) layer(vals map[string]float64, tr *tracer, wall float64) {
	es := s.eng.Stats()
	vals["ephem.propagations"] = float64(es.PropagatedSats)
	vals["ephem.hit_ratio"] = finite(float64(es.Hits) / float64(es.Hits+es.Misses))
	offered := 0
	for i, r := range s.results {
		name := metricPolicy(r.Policy)
		offered += r.Offered
		vals["serve."+name+".run_s"] = s.runS[i]
		vals["serve."+name+".p99_ms"] = s.p99[i]
		vals["serve."+name+".shed_pct"] = finite(100 * float64(r.ShedTotal()) / float64(r.Offered))
		vals["serve.parallel_slices"] += float64(s.stats[i].ParallelSlices)
		vals["serve.serial_slices"] += float64(s.stats[i].SerialSlices)
	}
	vals["serve.sim_req_per_s"] = finite(float64(offered) / wall)
	vals["serve.new_engine_s"] = s.newEngineS
	vals["serve.feed_s"] = s.feedS
	vals["serve.result_s"] = s.resultS
	vals["serve.alloc_b_per_req"] = finite(float64(s.runAllocB) / float64(offered))
}

// probe: serve freezes its 12-site network along a refresh-step chain.
func (s *serveRun) probe() probeShape {
	gs := make([]geo.LatLon, len(s.sites))
	for i, site := range s.sites {
		gs[i] = site.Loc
	}
	return probeShape{grounds: gs, stepSec: 30}
}
