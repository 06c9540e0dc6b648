package edgesim

import (
	"testing"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/units"
	"repro/internal/visibility"
)

func testConst(t testing.TB) *constellation.Constellation {
	t.Helper()
	c, err := constellation.Build("e", []constellation.Shell{
		{Name: "s", AltitudeKm: 550, InclinationDeg: 53, Planes: 24, SatsPerPlane: 24, PhaseFactor: 5, MinElevationDeg: 15},
	}, constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func baseCfg() Config {
	return Config{
		Site:        geo.LatLon{LatDeg: 9.06, LonDeg: 7.49},
		CoresPerSat: 8,
		Policy:      Nearest,
		DurationSec: 30,
	}
}

// propagationFloorMs is the round-trip propagation to the nearest satellite
// in view of the site at t=0: no response can beat it.
func propagationFloorMs(t *testing.T, c *constellation.Constellation, site geo.LatLon) float64 {
	t.Helper()
	passes := visibility.NewObserver(c).Reachable(site.ECEF(), c.Snapshot(0), nil)
	if len(passes) == 0 {
		t.Fatalf("no satellite in view of %v", site)
	}
	nearest := passes[0].SlantKm
	for _, p := range passes[1:] {
		nearest = min(nearest, p.SlantKm)
	}
	return 2 * units.PropagationDelayMs(nearest)
}

func TestValidation(t *testing.T) {
	c := testConst(t)
	good := Workload{ArrivalPerSec: 10, ServiceSec: 0.01, Seed: 1}
	if _, err := Run(c, baseCfg(), Workload{ArrivalPerSec: 0, ServiceSec: 0.01}); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := Run(c, baseCfg(), Workload{ArrivalPerSec: 1, ServiceSec: 0}); err == nil {
		t.Fatal("zero service accepted")
	}
	cfg := baseCfg()
	cfg.CoresPerSat = 0
	if _, err := Run(c, cfg, good); err == nil {
		t.Fatal("zero cores accepted")
	}
	cfg = baseCfg()
	cfg.DurationSec = 0
	if _, err := Run(c, cfg, good); err == nil {
		t.Fatal("zero duration accepted")
	}
	cfg = baseCfg()
	cfg.Site = geo.LatLon{LatDeg: 120}
	if _, err := Run(c, cfg, good); err == nil {
		t.Fatal("invalid site accepted")
	}
	cfg = baseCfg()
	cfg.Site = geo.LatLon{LatDeg: 89.5}
	if _, err := Run(c, cfg, good); err == nil {
		t.Fatal("uncovered site accepted")
	}
}

func TestLightLoadResponseNearPropagation(t *testing.T) {
	c := testConst(t)
	w := Workload{ArrivalPerSec: 5, ServiceSec: 0.002, Seed: 42}
	r, err := Run(c, baseCfg(), w)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed < 50 {
		t.Fatalf("only %d requests completed", r.Completed)
	}
	// At light load, response ≈ propagation + service (no queueing):
	// median within ~3 ms of the nearest round trip plus 2 ms service.
	wantFloor := propagationFloorMs(t, c, baseCfg().Site) + w.ServiceSec*1000
	med := r.ResponseMs.Median()
	if med < wantFloor-0.001 {
		t.Fatalf("median response %v below physical floor %v", med, wantFloor)
	}
	if med > wantFloor+3 {
		t.Fatalf("light-load median %v ms far above floor %v ms", med, wantFloor)
	}
	if r.ServersUsed != 1 {
		t.Fatalf("nearest policy used %d servers", r.ServersUsed)
	}
}

func TestOverloadSaturatesNearest(t *testing.T) {
	c := testConst(t)
	// 8 cores at 10 ms/request sustain 800 req/s; offer 1600.
	w := Workload{ArrivalPerSec: 1600, ServiceSec: 0.01, Seed: 7}
	r, err := Run(c, baseCfg(), w)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxUtilization < 0.95 {
		t.Fatalf("overloaded server utilization %v", r.MaxUtilization)
	}
	// Queueing dominates: p99 far above the propagation floor.
	if r.ResponseMs.Quantile(0.99) < 10*propagationFloorMs(t, c, baseCfg().Site) {
		t.Fatalf("overload p99 %v ms suspiciously low", r.ResponseMs.Quantile(0.99))
	}
}

func TestZeroArrivals(t *testing.T) {
	c := testConst(t)
	// A 0.001 req/s stream's first gap overshoots a 30 s window with
	// probability e^-0.03 ≈ 97%; seed 1 draws such a gap.
	w := Workload{ArrivalPerSec: 0.001, ServiceSec: 0.01, Seed: 1}
	r, err := Run(c, baseCfg(), w)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != 0 || r.ServersUsed != 0 || r.MaxUtilization != 0 || r.ResponseMs.N() != 0 {
		t.Fatalf("empty window: completed %d, servers %d, util %v, samples %d",
			r.Completed, r.ServersUsed, r.MaxUtilization, r.ResponseMs.N())
	}
}

func TestLeastBusySpreadsLoad(t *testing.T) {
	c := testConst(t)
	w := Workload{ArrivalPerSec: 1600, ServiceSec: 0.01, Seed: 7}
	cfgN := baseCfg()
	cfgL := baseCfg()
	cfgL.Policy = LeastBusy
	rn, err := Run(c, cfgN, w)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Run(c, cfgL, w)
	if err != nil {
		t.Fatal(err)
	}
	if rl.ServersUsed <= rn.ServersUsed {
		t.Fatalf("least-busy used %d servers vs nearest %d", rl.ServersUsed, rn.ServersUsed)
	}
	// Spreading slashes the tail.
	if rl.ResponseMs.Quantile(0.99) >= rn.ResponseMs.Quantile(0.99)/2 {
		t.Fatalf("least-busy p99 %v not well below nearest %v",
			rl.ResponseMs.Quantile(0.99), rn.ResponseMs.Quantile(0.99))
	}
}

func TestPolicyString(t *testing.T) {
	if Nearest.String() != "nearest" || LeastBusy.String() != "least-busy" {
		t.Fatal("policy names wrong")
	}
}

func TestLoadSweepShape(t *testing.T) {
	c := testConst(t)
	cfg := baseCfg()
	cfg.Policy = LeastBusy
	rows, err := LoadSweep(c, cfg, Workload{ServiceSec: 0.01, Seed: 3}, []float64{20, 200, 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Utilization rises with load; p99 non-decreasing (allowing noise).
	for i := 1; i < len(rows); i++ {
		if rows[i].MaxUtilization < rows[i-1].MaxUtilization-0.05 {
			t.Fatalf("utilization fell: %+v -> %+v", rows[i-1], rows[i])
		}
	}
	if rows[2].P99Ms < rows[0].P99Ms {
		t.Fatalf("p99 fell under 100x load: %v -> %v", rows[0].P99Ms, rows[2].P99Ms)
	}
	// Default rates path.
	if _, err := LoadSweep(c, cfg, Workload{ServiceSec: 0.005, Seed: 3}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	c := testConst(t)
	w := Workload{ArrivalPerSec: 100, ServiceSec: 0.01, Seed: 99}
	a, err := Run(c, baseCfg(), w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(c, baseCfg(), w)
	if err != nil {
		t.Fatal(err)
	}
	if a.Completed != b.Completed || a.ResponseMs.Median() != b.ResponseMs.Median() {
		t.Fatal("simulation not deterministic under a fixed seed")
	}
}
