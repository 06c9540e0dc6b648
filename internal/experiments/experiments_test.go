package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/plot"
)

// The tests here run the real experiments at reduced time resolution so the
// full suite stays in tens of seconds; cmd/figures runs paper scale.

func fastSweep() LatitudeSweepConfig {
	return LatitudeSweepConfig{
		LatStepDeg:     5,
		SampleEverySec: 600,
		DurationSec:    3600,
	}
}

func TestFig1PaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full constellations")
	}
	results, err := Fig1(fastSweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	var starlink, kuiper Fig1Result
	for _, r := range results {
		if strings.Contains(r.Constellation, "Starlink") {
			starlink = r
		} else {
			kuiper = r
		}
	}
	// Paper: Starlink's nearest satellite is within 11 ms RTT across all
	// ground locations; farthest within 16 ms.
	for _, row := range starlink.Rows {
		if !row.Covered {
			t.Fatalf("Starlink uncovered at lat %v", row.LatDeg)
		}
		if row.MinRTTMs > 12 {
			t.Errorf("Starlink nearest RTT %v ms at lat %v exceeds ~11", row.MinRTTMs, row.LatDeg)
		}
		if row.MaxRTTMs > 17 {
			t.Errorf("Starlink farthest RTT %v ms at lat %v exceeds ~16", row.MaxRTTMs, row.LatDeg)
		}
	}
	// Paper: the nearest satellite is within ~4 ms at most latitudes.
	lowLatCount := 0
	for _, row := range starlink.Rows {
		if row.LatDeg <= 55 && row.MinRTTMs <= 5 {
			lowLatCount++
		}
	}
	if lowLatCount < 8 {
		t.Errorf("only %d low latitudes with ≤5 ms nearest RTT", lowLatCount)
	}
	// Paper: Kuiper provides no service beyond 60° latitude.
	for _, row := range kuiper.Rows {
		if row.LatDeg > 62 && row.Covered {
			t.Errorf("Kuiper covered at lat %v, should cut off near 60°", row.LatDeg)
		}
		if row.LatDeg < 40 && !row.Covered {
			t.Errorf("Kuiper uncovered at low latitude %v", row.LatDeg)
		}
	}
	if s := Fig1Check(starlink); !strings.Contains(s, "Starlink") {
		t.Errorf("Fig1Check output: %q", s)
	}
	// Series round trip.
	minS, maxS := starlink.Series()
	if !minS.Valid() || !maxS.Valid() {
		t.Fatal("invalid series")
	}
}

func TestFig2PaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full constellations")
	}
	results, err := Fig2(fastSweep())
	if err != nil {
		t.Fatal(err)
	}
	var starlink, kuiper Fig2Result
	for _, r := range results {
		if strings.Contains(r.Constellation, "Starlink") {
			starlink = r
		} else {
			kuiper = r
		}
	}
	// Paper: for Starlink, 30+ satellites reachable from almost all
	// locations at all times; typically more than 40.
	okLats, typ40 := 0, 0
	for _, row := range starlink.Rows {
		if row.LatDeg > 58 {
			continue // the paper's "almost all" excludes the polar fringe
		}
		if row.MinCount >= 25 {
			okLats++
		}
		if row.MeanCount > 40 {
			typ40++
		}
	}
	if okLats < 9 {
		t.Errorf("Starlink: only %d/12 mid-latitudes with min reachable ≥25", okLats)
	}
	if typ40 < 6 {
		t.Errorf("Starlink: only %d latitudes averaging >40 reachable", typ40)
	}
	// Paper: for Kuiper, 10+ satellites for most serviced latitudes.
	served10 := 0
	for _, row := range kuiper.Rows {
		if row.LatDeg <= 50 && row.MeanCount >= 10 {
			served10++
		}
	}
	if served10 < 7 {
		t.Errorf("Kuiper: only %d latitudes with mean ≥10 reachable", served10)
	}
	avg, minS, maxS := starlink.Series()
	if !avg.Valid() || !minS.Valid() || !maxS.Valid() {
		t.Fatal("invalid series")
	}
}

func TestFig3WestAfrica(t *testing.T) {
	if testing.Short() {
		t.Skip("full constellation + routing")
	}
	res, err := Fig3(WestAfricaScenario(), Fig3Config{SampleEverySec: 600, DurationSec: 3600})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: in-orbit 16 ms vs hybrid 46 ms, "almost 3x".
	if res.InOrbitRTTMs < 8 || res.InOrbitRTTMs > 22 {
		t.Errorf("in-orbit RTT = %.1f ms, want ≈16", res.InOrbitRTTMs)
	}
	if res.TerrestrialRTTMs < 30 || res.TerrestrialRTTMs > 70 {
		t.Errorf("terrestrial RTT = %.1f ms, want ≈46", res.TerrestrialRTTMs)
	}
	if res.Improvement < 1.8 {
		t.Errorf("improvement = %.2fx, want ≥1.8 (paper ~3x)", res.Improvement)
	}
	// Paper: 9,200 km round trip to the farthest user → ~4,600 one way.
	if res.GeodesicKm < 3500 || res.GeodesicKm > 5500 {
		t.Errorf("geodesic = %.0f km, want ≈4,600", res.GeodesicKm)
	}
	// Paper: Sticky costs ~1.4 ms extra.
	if res.StickyPremiumMs < 0 || res.StickyPremiumMs > 5 {
		t.Errorf("sticky premium = %.2f ms, want small positive", res.StickyPremiumMs)
	}
}

func TestFig3TriContinent(t *testing.T) {
	if testing.Short() {
		t.Skip("full constellation + routing")
	}
	res, err := Fig3(TriContinentScenario(), Fig3Config{SampleEverySec: 900, DurationSec: 3600})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: best terrestrial 97 ms vs in-orbit 66 ms on Kuiper.
	if res.InOrbitRTTMs < 50 || res.InOrbitRTTMs > 90 {
		t.Errorf("in-orbit RTT = %.1f ms, want ≈66", res.InOrbitRTTMs)
	}
	if res.TerrestrialRTTMs < 80 || res.TerrestrialRTTMs > 130 {
		t.Errorf("terrestrial RTT = %.1f ms, want ≈97", res.TerrestrialRTTMs)
	}
	if res.Improvement <= 1 {
		t.Errorf("in-orbit should win: improvement = %.2f", res.Improvement)
	}
}

func TestFig3Validation(t *testing.T) {
	if _, err := Fig3(Fig3Scenario{Constellation: "nope"}, Fig3Config{}); err == nil {
		t.Fatal("unknown constellation accepted")
	}
	sc := WestAfricaScenario()
	sc.DCNames = []string{"Atlantis"}
	if _, err := Fig3(sc, Fig3Config{SampleEverySec: 600, DurationSec: 600}); err == nil {
		t.Fatal("unknown region accepted")
	}
}

func TestFig4PaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full constellations")
	}
	results, err := Fig4(Fig4Config{})
	if err != nil {
		t.Fatal(err)
	}
	var starlink, kuiper Fig4Result
	for _, r := range results {
		if strings.Contains(r.Constellation, "Starlink") {
			starlink = r
		} else {
			kuiper = r
		}
	}
	// Monotone: more cities can only see more satellites.
	for _, r := range results {
		for i := 1; i < len(r.Invisible); i++ {
			if r.Invisible[i] > r.Invisible[i-1] {
				t.Errorf("%s: invisible count not monotone at n=%d", r.Constellation, r.NValues[i])
			}
		}
	}
	// Paper: at n=1000, more than a third of Starlink's and more than half
	// of Kuiper's satellites are invisible.
	sFrac := float64(starlink.Invisible[len(starlink.Invisible)-1]) / float64(starlink.Total)
	kFrac := float64(kuiper.Invisible[len(kuiper.Invisible)-1]) / float64(kuiper.Total)
	if sFrac < 0.28 || sFrac > 0.6 {
		t.Errorf("Starlink invisible fraction at n=1000 = %.2f, paper: >1/3", sFrac)
	}
	if kFrac < 0.42 || kFrac > 0.75 {
		t.Errorf("Kuiper invisible fraction at n=1000 = %.2f, paper: >1/2", kFrac)
	}
	if kFrac <= sFrac {
		t.Errorf("Kuiper (%.2f) should have more invisible than Starlink (%.2f)", kFrac, sFrac)
	}
	if s := starlink.Series(); !s.Valid() {
		t.Fatal("invalid Fig4 series")
	}
}

func TestFig4Validation(t *testing.T) {
	if _, err := Fig4(Fig4Config{NValues: []int{-5}}); err == nil {
		t.Fatal("negative n accepted")
	}
}

func TestFig5SouthernSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("full constellation")
	}
	results, err := Fig5(ConstellationSet{Starlink: true}, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if len(r.InvisibleSats) == 0 {
		t.Fatal("no invisible satellites")
	}
	// Paper (Fig 5): the vast majority of invisible satellites sit south
	// of the world's population.
	south := 0
	for _, s := range r.InvisibleSats {
		if s.LatDeg < 0 {
			south++
		}
	}
	if frac := float64(south) / float64(len(r.InvisibleSats)); frac < 0.55 {
		t.Errorf("southern invisible fraction = %.2f, expected majority south", frac)
	}
	// The map renders without panicking and contains both glyphs.
	m := RenderFig5(r, 120, 40)
	var sb strings.Builder
	if err := m.Render(&sb, "fig5"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "O") || !strings.Contains(sb.String(), "+") {
		t.Fatal("map missing glyphs")
	}
}

func TestFig5Validation(t *testing.T) {
	if _, err := Fig5(ConstellationSet{Starlink: true}, 0, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
}

// TestFig67DeterministicAcrossGOMAXPROCS pins the byte-identity contract
// for the Sticky/MinMax study: the Fig 6/7 CSV renders and hand-off counts
// must not depend on how many sweep workers share the ephemeris engine.
func TestFig67DeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := Fig67Config{Groups: 6, DurationSec: 1200, StepSec: 5}
	render := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := Fig67(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		mm6, st6 := res.Fig6Series()
		mm7, st7 := res.Fig7Series()
		if err := plot.WriteCSVRagged(&b, mm6, st6); err != nil {
			t.Fatal(err)
		}
		if err := plot.WriteCSVRagged(&b, mm7, st7); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "handoffs minmax=%d sticky=%d groups=%d\n", res.HandoffsMinMax, res.HandoffsSticky, res.GroupsSimulated)
		return b.String()
	}
	one, four := render(1), render(4)
	if one != four {
		t.Fatalf("Fig 6/7 output differs between GOMAXPROCS 1 and 4:\n--- 1 ---\n%s\n--- 4 ---\n%s", one, four)
	}
	if !strings.Contains(one, "handoffs minmax=") || strings.Contains(one, "minmax=0 ") {
		t.Fatalf("degenerate Fig 6/7 run:\n%s", one)
	}
}

func TestFig67PaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	res, err := Fig67(Fig67Config{Groups: 6, DurationSec: 3600, StepSec: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.GroupsSimulated == 0 {
		t.Fatal("no groups simulated")
	}
	// Fig 6 shape: Sticky hand-offs are less frequent and last longer.
	if res.HandoffsSticky >= res.HandoffsMinMax {
		t.Errorf("Sticky handoffs (%d) not fewer than MinMax (%d)", res.HandoffsSticky, res.HandoffsMinMax)
	}
	if ratio := res.MedianRatio(); ratio < 1.2 {
		t.Errorf("median hold ratio = %.2f, want > 1.2 (paper ~4)", ratio)
	}
	// Fig 7 shape: transfer latencies similar and low for both.
	mmMed := res.TransfersMinMax.Median()
	stMed := res.TransfersSticky.Median()
	if mmMed <= 0 || mmMed > 20 || stMed <= 0 || stMed > 20 {
		t.Errorf("transfer medians %v / %v ms out of the paper's low range", mmMed, stMed)
	}
	if math.Abs(mmMed-stMed) > 10 {
		t.Errorf("transfer medians diverge: %v vs %v", mmMed, stMed)
	}
	// Sticky's latency premium stays small.
	if res.MeanRTTSticky-res.MeanRTTMinMax > 5 {
		t.Errorf("sticky premium %.2f ms too large", res.MeanRTTSticky-res.MeanRTTMinMax)
	}
	mm6, st6 := res.Fig6Series()
	mm7, st7 := res.Fig7Series()
	for _, s := range []struct {
		name string
		ok   bool
	}{{"mm6", mm6.Valid()}, {"st6", st6.Valid()}, {"mm7", mm7.Valid()}, {"st7", st7.Valid()}} {
		if !s.ok {
			t.Errorf("series %s invalid", s.name)
		}
	}
}

func TestFeasibilityTable(t *testing.T) {
	table, rep, err := FeasibilityTable()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table, "Cost ratio") || !strings.Contains(table, "42") {
		t.Errorf("table missing rows:\n%s", table)
	}
	if rep.CostRatio < 2.5 || rep.CostRatio > 4.5 {
		t.Errorf("cost ratio %.2f out of the paper's ~3x", rep.CostRatio)
	}
}

func TestEOSweep(t *testing.T) {
	rows, err := EOSweep(0.08, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Sensing duty grows with preprocessing until processing-bound.
	for i := 1; i < len(rows); i++ {
		if rows[i].SensingDuty < rows[i-1].SensingDuty-1e-9 {
			t.Errorf("duty fell at factor %v", rows[i].PreprocessFactor)
		}
	}
	if rows[0].PreprocessFactor != 1 || rows[0].DownlinkSavings != 0 {
		t.Errorf("baseline row wrong: %+v", rows[0])
	}
	last := rows[len(rows)-1]
	if last.SensingDuty < 3*rows[0].SensingDuty {
		t.Errorf("preprocessing gain too small: %v vs %v", last.SensingDuty, rows[0].SensingDuty)
	}
}

func TestMaskAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("full constellation")
	}
	rows, err := MaskAblation([]float64{15, 25, 40}, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Lower mask → more reachable satellites.
	for i := 1; i < len(rows); i++ {
		if rows[i].MeanReachable >= rows[i-1].MeanReachable {
			t.Errorf("reachable count did not fall from mask %v to %v",
				rows[i-1].MaskDeg, rows[i].MaskDeg)
		}
	}
}

func TestConstellationSetValidation(t *testing.T) {
	if _, err := (ConstellationSet{}).build(); err == nil {
		t.Fatal("empty set accepted")
	}
}

func TestParallelForErrors(t *testing.T) {
	err := parallelFor(10, func(i int) error {
		if i == 5 {
			return errTest
		}
		return nil
	})
	if err != errTest {
		t.Fatalf("err = %v", err)
	}
	// Single-element path.
	if err := parallelFor(1, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

var errTest = &testErr{}

type testErr struct{}

func (*testErr) Error() string { return "test error" }

func TestWeatherStudy(t *testing.T) {
	rows, err := WeatherStudy(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 3 climates x 3 margins", len(rows))
	}
	byKey := map[string]WeatherRow{}
	for _, r := range rows {
		byKey[r.Climate+"/"+fmtMargin(r.MarginDB)] = r
		if r.Availability <= 0.8 || r.Availability > 1 {
			t.Fatalf("availability out of range: %+v", r)
		}
		if r.OutageMmH <= 0 {
			t.Fatalf("no outage knee: %+v", r)
		}
	}
	// More margin → more availability; wetter climate → less.
	if byKey["tropical/4"].Availability >= byKey["tropical/12"].Availability {
		t.Fatal("margin should raise availability")
	}
	if byKey["tropical/8"].Availability >= byKey["arid/8"].Availability {
		t.Fatal("tropical should be less available than arid")
	}
}

func fmtMargin(m float64) string {
	return map[float64]string{4: "4", 8: "8", 12: "12"}[m]
}

func TestMatchmaking(t *testing.T) {
	if testing.Short() {
		t.Skip("full constellation routing")
	}
	rows, err := Matchmaking(MatchmakingConfig{PairsPerBucket: 8, Separations: []float64{1000, 8000, 15000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.PlayableInOrbit < r.PlayableTerrestrial {
			t.Fatalf("in-orbit should never be less playable: %+v", r)
		}
		if r.MeanInOrbitMs <= 0 || r.MeanTerrestrialMs <= 0 {
			t.Fatalf("degenerate means: %+v", r)
		}
	}
	// Nearby players: both work. Far players: orbit wins on playability or
	// at least on mean latency.
	near, far := rows[0], rows[len(rows)-1]
	if near.PlayableInOrbit < 0.9 {
		t.Fatalf("nearby pairs should almost always be playable in orbit: %+v", near)
	}
	if far.MeanInOrbitMs >= far.MeanTerrestrialMs {
		t.Fatalf("orbit should beat fiber at %v km: %+v", far.SeparationKm, far)
	}
}

func TestChurnStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full constellation routing")
	}
	rows, err := ChurnStudy(600, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MeanLatencyMs <= 0 {
			t.Fatalf("%s: no latency", r.Name)
		}
		if r.Stretch < 1 || r.Stretch > 6 {
			t.Fatalf("%s: stretch %v implausible", r.Name, r.Stretch)
		}
		if r.MedianPathLifeS <= 0 {
			t.Fatalf("%s: no path lifetime", r.Name)
		}
	}
	// Longer routes carry more absolute latency.
	byName := map[string]ChurnRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if byName["Frankfurt-Singapore"].MeanLatencyMs <= byName["Abuja-Accra"].MeanLatencyMs {
		t.Fatal("long route should have higher latency than the short one")
	}
}

func TestCapacityStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full constellation")
	}
	rows, err := CapacityStudy(nil, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Satisfaction falls and utilization grows with adoption.
	for i := 1; i < len(rows); i++ {
		if rows[i].SatisfiedPct > rows[i-1].SatisfiedPct+1e-9 {
			t.Fatalf("satisfaction rose with adoption: %+v -> %+v", rows[i-1], rows[i])
		}
		if rows[i].FleetUtilPct < rows[i-1].FleetUtilPct-1e-9 {
			t.Fatalf("utilization fell with adoption")
		}
	}
	// Idle fleet is adoption-independent (geometry only).
	for _, r := range rows[1:] {
		if r.IdleSats != rows[0].IdleSats {
			t.Fatalf("idle sats changed with adoption")
		}
	}
	if rows[0].IdleSats < 1000 {
		t.Fatalf("idle sats = %d, expected a large idle fleet (Fig 4)", rows[0].IdleSats)
	}
}

func TestEdgeLoadStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full constellation")
	}
	rows, err := EdgeLoadStudy([]float64{100, 8000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var nearestHigh, leastHigh EdgeLoadRow
	for _, r := range rows {
		if r.ArrivalPerSec == 8000 {
			if r.Policy == "nearest" {
				nearestHigh = r
			} else {
				leastHigh = r
			}
		}
	}
	// Overload: nearest collapses, least-busy holds by spreading.
	if nearestHigh.P99Ms < 10*leastHigh.P99Ms {
		t.Fatalf("nearest p99 %v should dwarf least-busy %v under overload",
			nearestHigh.P99Ms, leastHigh.P99Ms)
	}
	if leastHigh.ServersUsed <= nearestHigh.ServersUsed {
		t.Fatalf("least-busy should use more servers: %d vs %d",
			leastHigh.ServersUsed, nearestHigh.ServersUsed)
	}
}

func TestCDNStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full constellation")
	}
	rows, err := CDNStudy(500)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	ter, orb := rows[0], rows[1]
	// The paper's §3.1 shape: terrestrial latency has a heavy tail (p95
	// approaching the 100 ms line); the in-orbit edge is single-digit
	// everywhere covered.
	if ter.P95Ms < 50 || ter.MaxMs < 90 {
		t.Fatalf("terrestrial tail too light: %+v", ter)
	}
	if orb.Over100msPct != 0 {
		t.Fatalf("in-orbit cities over 100 ms: %+v", orb)
	}
	if orb.P95Ms >= ter.P50Ms {
		t.Fatalf("orbital p95 %v not below terrestrial p50 %v", orb.P95Ms, ter.P50Ms)
	}
	if orb.MaxMs > 20 {
		t.Fatalf("orbital max %v ms implausible", orb.MaxMs)
	}
}

func TestTelesatSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full constellation")
	}
	// Telesat's 10° mask + polar shell: global coverage including poles.
	results, err := Fig1(LatitudeSweepConfig{
		Constellations: ConstellationSet{Telesat: true},
		LatStepDeg:     15,
		SampleEverySec: 1200,
		DurationSec:    3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Constellation != "Telesat" {
		t.Fatalf("results = %+v", results)
	}
	for _, row := range results[0].Rows {
		if !row.Covered {
			t.Fatalf("Telesat uncovered at lat %v — polar shell should cover everything", row.LatDeg)
		}
	}
}

func TestConfigDefaultBranches(t *testing.T) {
	// Fig67Config: UsersMax below UsersMin gets lifted.
	c := Fig67Config{UsersMin: 4, UsersMax: 2}.withDefaults()
	if c.UsersMax < c.UsersMin {
		t.Fatalf("defaults left inverted bounds: %+v", c)
	}
	// LatitudeSweepConfig fills everything.
	s := LatitudeSweepConfig{}.withDefaults()
	if s.LatStepDeg != 1 || s.SampleEverySec != 60 || s.DurationSec != 7200 {
		t.Fatalf("sweep defaults: %+v", s)
	}
	if !s.Constellations.Starlink || !s.Constellations.Kuiper {
		t.Fatal("sweep defaults should select both constellations")
	}
	// Fig3Config.
	f3 := Fig3Config{}.withDefaults()
	if f3.SampleEverySec != 60 || f3.DurationSec != 7200 {
		t.Fatalf("fig3 defaults: %+v", f3)
	}
	// MatchmakingConfig.
	mm := MatchmakingConfig{}.withDefaults()
	if mm.LatencyCapMs != 80 || mm.PairsPerBucket != 20 || len(mm.Separations) == 0 || mm.Seed == 0 {
		t.Fatalf("matchmaking defaults: %+v", mm)
	}
}

func TestStickyAblationDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	// Default bands (4) x explicit pools (1) = 4 rows; exercise the
	// default-argument path without the full 16-config sweep.
	rows, err := StickyAblation(nil, []int{5}, Fig67Config{Groups: 2, DurationSec: 600, StepSec: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 default bands", len(rows))
	}
	for _, r := range rows {
		if r.PoolSize != 5 {
			t.Fatalf("pool = %d", r.PoolSize)
		}
	}
}

func TestParallelForProgress(t *testing.T) {
	before := Progress()
	if err := parallelFor(17, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := Progress() - before; got != 17 {
		t.Fatalf("progress delta = %d, want 17", got)
	}
	// An erroring iteration still counts as run. The serial path stops at
	// the first error (3 iterations); the parallel path drains the feed (4).
	before = Progress()
	_ = parallelFor(4, func(i int) error {
		if i == 2 {
			return errTest
		}
		return nil
	})
	if got := Progress() - before; got < 3 || got > 4 {
		t.Fatalf("progress delta with error = %d, want 3 or 4", got)
	}
}
