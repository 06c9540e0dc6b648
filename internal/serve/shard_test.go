package serve

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/compute"
	"repro/internal/constellation"
	"repro/internal/faults"
	"repro/internal/obs"
)

// diffScenario is one differential configuration: the sharded engine must
// match the legacy oracle byte for byte on every derived quantity.
type diffScenario struct {
	name     string
	server   compute.ServerSpec
	queueCap int
	chaos    bool
}

func diffScenarios() []diffScenario {
	return []diffScenario{
		{name: "plain", server: compute.ServerSpec{Cores: 8, MemoryGB: 64, PowerCapFraction: 1}},
		{name: "tight", server: compute.ServerSpec{Cores: 1, MemoryGB: 8, PowerCapFraction: 1}, queueCap: 2},
		{name: "chaos", server: compute.ServerSpec{Cores: 2, MemoryGB: 16, PowerCapFraction: 1}, chaos: true},
	}
}

func (sc diffScenario) config(t testing.TB, c *constellation.Constellation, p Policy, workers int) Config {
	t.Helper()
	cfg := Config{
		Sites:      testSites(),
		Policy:     p,
		Server:     sc.server,
		QueueCap:   sc.queueCap,
		RefreshSec: 15,
		Workers:    workers,
	}
	if sc.chaos {
		// Moderate failure pressure: a changing mix of up and down
		// satellites at each refresh, so sat_down shedding and candidate
		// churn both happen without killing the whole constellation.
		inj, err := faults.New(c.Size(), faults.Config{Seed: 9, SatMTBFHours: 0.02, SatMTTRSec: 120})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = inj
	}
	return cfg
}

// runShardedSteps drives the sharded engine like fleetsim does: fed once,
// advanced in fixed steps (deliberately unaligned with RefreshSec so slices
// split across RunUntil calls).
func runShardedSteps(t testing.TB, c *constellation.Constellation, cfg Config, reqs []Request, horizon, step float64) Result {
	t.Helper()
	eng, err := NewEngine(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Feed(reqs); err != nil {
		t.Fatal(err)
	}
	for ts := step; ts < horizon; ts += step {
		eng.RunUntil(ts)
	}
	eng.RunUntil(horizon)
	return eng.Result()
}

func runLegacyOracle(t testing.TB, c *constellation.Constellation, cfg Config, reqs []Request, horizon float64) Result {
	t.Helper()
	eng, err := newLegacyEngine(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Feed(reqs); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(horizon)
	return eng.Result()
}

// renderResult canonicalizes a Result into a byte string: every counter,
// the last completion time, per-reason sheds in report order, latency
// quantiles, and per-satellite utilization, all at full float precision.
func renderResult(r Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy=%s offered=%d served=%d inflight=%d sats=%d peakq=%d last=%x\n",
		r.Policy, r.Offered, r.Served, r.InFlight, r.SatsUsed, r.PeakQueued, r.LastDoneSec)
	for _, reason := range ShedReasons {
		fmt.Fprintf(&b, "shed[%s]=%d\n", reason, r.Shed[reason])
	}
	fmt.Fprintf(&b, "lat n=%d", r.LatencyMs.N())
	if r.LatencyMs.N() > 0 {
		fmt.Fprintf(&b, " min=%x max=%x mean=%x p50=%x p90=%x p99=%x p999=%x",
			r.LatencyMs.Min(), r.LatencyMs.Max(), r.LatencyMs.Mean(),
			r.LatencyMs.Quantile(0.5), r.LatencyMs.Quantile(0.9),
			r.LatencyMs.Quantile(0.99), r.LatencyMs.Quantile(0.999))
	}
	b.WriteString("\nutil=")
	for i, u := range r.Utilization {
		if u != 0 {
			fmt.Fprintf(&b, "%d:%x ", i, u)
		}
	}
	b.WriteString("\n")
	return b.String()
}

// TestShardedMatchesLegacy is the differential pin: for every policy,
// scenario, and worker count, the sharded engine's results are identical to
// the single-threaded netsim oracle — counters, shed reasons, peak queue,
// utilization, and the full shape of the latency distribution.
func TestShardedMatchesLegacy(t *testing.T) {
	c := testConst(t)
	reqs := testTrace(t, 300, 60)
	for _, p := range Policies() {
		for _, sc := range diffScenarios() {
			oracle := renderResult(runLegacyOracle(t, c, sc.config(t, c, p, 0), reqs, 90))
			for _, workers := range []int{1, 2, 8} {
				got := renderResult(runShardedSteps(t, c, sc.config(t, c, p, workers), reqs, 90, 10))
				if got != oracle {
					t.Errorf("%s/%s workers=%d diverged from legacy:\n got: %s\nwant: %s",
						p.Name(), sc.name, workers, got, oracle)
				}
			}
		}
	}
}

// TestShardedGOMAXPROCSInvariant pins byte-identical results across
// GOMAXPROCS 1/2/8 at a forced 8-way fan-out: scheduling freedom must never
// leak into outputs.
func TestShardedGOMAXPROCSInvariant(t *testing.T) {
	c := testConst(t)
	reqs := testTrace(t, 300, 60)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range Policies() {
		sc := diffScenarios()[1] // tight: queueing + shedding active
		var want string
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got := renderResult(runShardedSteps(t, c, sc.config(t, c, p, 8), reqs, 90, 15))
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("%s GOMAXPROCS=%d diverged:\n got: %s\nwant: %s", p.Name(), procs, got, want)
			}
		}
	}
}

// TestTraceReplayShardingDeterminism replays one JSONL trace at workers=1
// and workers=8 and byte-compares the reports and shed-reason counts — the
// round-trip a recorded production trace would take.
func TestTraceReplayShardingDeterminism(t *testing.T) {
	c := testConst(t)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, testTrace(t, 400, 60)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	srv := compute.ServerSpec{Cores: 2, MemoryGB: 16, PowerCapFraction: 1}
	run := func(workers int) string {
		reqs, err := ReadTrace(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		for _, p := range Policies() {
			eng, err := NewEngine(c, Config{
				Sites: testSites(), Policy: p, Server: srv,
				QueueCap: 4, RefreshSec: 15, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Feed(reqs); err != nil {
				t.Fatal(err)
			}
			eng.RunUntil(90)
			out.WriteString(renderResult(eng.Result()))
		}
		return out.String()
	}
	serial, sharded := run(1), run(8)
	if serial != sharded {
		t.Fatalf("trace replay diverged between workers=1 and workers=8:\n%s\nvs\n%s", serial, sharded)
	}
}

// TestFeedNonMonotonic pins the typed error: out-of-order feeds are
// rejected instead of silently corrupting slice order.
func TestFeedNonMonotonic(t *testing.T) {
	c := testConst(t)
	eng, err := NewEngine(c, Config{Sites: testSites(), Policy: Nearest(), Server: testServer()})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Feed([]Request{
		{TSec: 1, Site: 0, ServiceMs: 5},
		{TSec: 1, Site: 1, ServiceMs: 5}, // equal timestamps are fine
		{TSec: 2, Site: 0, ServiceMs: 5},
	}); err != nil {
		t.Fatalf("monotonic feed rejected: %v", err)
	}
	err = eng.Feed([]Request{{TSec: 1.5, Site: 0, ServiceMs: 5}})
	if !errors.Is(err, ErrNonMonotonic) {
		t.Fatalf("out-of-order feed: got %v, want ErrNonMonotonic", err)
	}
	eng.RunUntil(10)
	// Feeding behind the simulation clock is equally out of order.
	err = eng.Feed([]Request{{TSec: 5, Site: 0, ServiceMs: 5}})
	if !errors.Is(err, ErrNonMonotonic) {
		t.Fatalf("feed behind sim time: got %v, want ErrNonMonotonic", err)
	}
	if err := eng.Feed([]Request{{TSec: 12, Site: 0, ServiceMs: 5}}); err != nil {
		t.Fatalf("future feed after run rejected: %v", err)
	}
}

// TestEngineStats pins the execution-shape accounting: forced fan-out goes
// parallel for slice-local policies, stays serial for load-coupled ones,
// and adaptive mode falls back to serial under light load.
func TestEngineStats(t *testing.T) {
	c := testConst(t)
	reqs := testTrace(t, 300, 60)
	run := func(p Policy, workers int) EngineStats {
		eng, err := NewEngine(c, Config{
			Sites: testSites(), Policy: p, Server: testServer(),
			RefreshSec: 15, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Feed(reqs); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(90)
		return eng.Stats()
	}
	if st := run(Nearest(), 4); st.Workers != 4 || st.ParallelSlices == 0 || st.SerialSlices != 0 {
		t.Fatalf("forced fan-out stats: %+v", st)
	}
	if st := run(LeastLoaded(), 4); st.Workers != 1 || st.ParallelSlices != 0 || st.SerialSlices == 0 {
		t.Fatalf("load-coupled policy must run serial: %+v", st)
	}
	if st := run(Sticky(0), 1); st.Workers != 1 || st.ParallelSlices != 0 {
		t.Fatalf("workers=1 stats: %+v", st)
	}
	// ~4.5k arrivals per 15 s slice: adaptive mode crosses the work
	// threshold only when spare CPUs exist.
	if st := run(Nearest(), 0); st.Workers > 1 && runtime.NumCPU() == 1 {
		t.Fatalf("adaptive fan-out on a single-CPU host: %+v", st)
	}
	if _, err := NewEngine(c, Config{Sites: testSites(), Policy: Nearest(), Server: testServer(), Workers: -1}); err == nil {
		t.Fatal("negative workers accepted")
	}
}

// TestShardedMetricsMatchLegacy compares the obs registry contents the two
// engines produce for an identical run.
func TestShardedMetricsMatchLegacy(t *testing.T) {
	c := testConst(t)
	reqs := testTrace(t, 200, 60)
	srv := compute.ServerSpec{Cores: 1, MemoryGB: 8, PowerCapFraction: 1}

	regL := obs.NewRegistry()
	lcfg := Config{Sites: testSites(), Policy: Nearest(), Server: srv, QueueCap: 2, RefreshSec: 15, Registry: regL}
	_ = runLegacyOracle(t, c, lcfg, reqs, 90)

	regS := obs.NewRegistry()
	scfg := lcfg
	scfg.Registry = regS
	scfg.Workers = 8
	_ = runShardedSteps(t, c, scfg, reqs, 90, 15)

	for _, name := range []string{"serve_requests_total", "serve_served_total"} {
		l := regL.CounterVec(name, "", "policy").With("nearest").Value()
		s := regS.CounterVec(name, "", "policy").With("nearest").Value()
		if l != s {
			t.Errorf("%s: legacy %d, sharded %d", name, l, s)
		}
	}
	for _, reason := range ShedReasons {
		l := regL.CounterVec("serve_shed_total", "", "policy", "reason").With("nearest", string(reason)).Value()
		s := regS.CounterVec("serve_shed_total", "", "policy", "reason").With("nearest", string(reason)).Value()
		if l != s {
			t.Errorf("serve_shed_total{%s}: legacy %d, sharded %d", reason, l, s)
		}
	}
	lq := regL.QuantileVec("serve_request_ms", "", "policy").With("nearest")
	sq := regS.QuantileVec("serve_request_ms", "", "policy").With("nearest")
	if lq.Count() != sq.Count() {
		t.Errorf("latency observations: legacy %d, sharded %d", lq.Count(), sq.Count())
	}
}
