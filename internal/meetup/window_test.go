package meetup

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/constellation"
	"repro/internal/ephem"
	"repro/internal/geo"
	"repro/internal/isl"
	"repro/internal/obs"
	"repro/internal/orbit"
)

// sessionBits flattens every float of a SessionResult to its bit pattern,
// so two results compare exactly (reflect.DeepEqual alone treats 0 and -0
// as equal).
func sessionBits(r SessionResult) []uint64 {
	out := []uint64{uint64(r.Policy), math.Float64bits(r.StartSec), math.Float64bits(r.DurationSec),
		math.Float64bits(r.FinalHoldSec), uint64(r.RTT.N()), math.Float64bits(r.RTT.Min()),
		math.Float64bits(r.RTT.Max()), math.Float64bits(r.RTT.Mean()), math.Float64bits(r.RTT.Variance())}
	for _, h := range r.Handoffs {
		out = append(out, math.Float64bits(h.TimeSec), uint64(h.From), uint64(h.To),
			math.Float64bits(h.TransferMs), math.Float64bits(h.HeldSec))
	}
	return out
}

func sameResult(a, b SessionResult) bool {
	return reflect.DeepEqual(a, b) && reflect.DeepEqual(sessionBits(a), sessionBits(b))
}

func sameCandidate(a, b Candidate) bool {
	return a.SatID == b.SatID && math.Float64bits(a.GroupRTTMs) == math.Float64bits(b.GroupRTTMs)
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// walkerJ2 is a sparse J2-precessing Walker shell: coverage gaps are
// common, so sessions start in gaps and lose the group mid-session.
func walkerJ2(t testing.TB) *constellation.Constellation {
	t.Helper()
	c, err := constellation.Build("walker-j2", []constellation.Shell{
		{Name: "w", AltitudeKm: 800, InclinationDeg: 60, Planes: 10, SatsPerPlane: 10, PhaseFactor: 3, MinElevationDeg: 30},
	}, constellation.Config{Orbit: orbit.Options{J2: true}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testProvider(c *constellation.Constellation) *Provider {
	return NewProviderFor(ephem.New(c, ephem.Config{Registry: obs.NewRegistry()}))
}

var diffGroups = []struct {
	name  string
	users []geo.LatLon
}{
	{"west-africa", westAfrica()},
	// High latitude at the poleward edge of Kuiper's coverage: the group
	// loses its last common satellite mid-session.
	{"skagerrak", []geo.LatLon{{LatDeg: 58, LonDeg: 10}, {LatDeg: 57.5, LonDeg: 12}, {LatDeg: 57, LonDeg: 9}}},
	// Starts in a coverage gap on the sparse Walker shell.
	{"pacific-gap", []geo.LatLon{{LatDeg: 10, LonDeg: -150}, {LatDeg: 13, LonDeg: -146}}},
}

// TestWindowedSessionsMatchOracle holds Simulate, SelectSticky and
// TimeToExpiry to the full-frame oracle, bit for bit, across
// constellations, steps, policies and group geometries.
func TestWindowedSessionsMatchOracle(t *testing.T) {
	starlink, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	kuiper, err := constellation.Kuiper(constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	consts := []struct {
		c        *constellation.Constellation
		duration float64
	}{{starlink, 900}, {kuiper, 900}, {walkerJ2(t), 3600}}
	var handoffs, gapStarts, gapSteps int
	for _, cc := range consts {
		grid := isl.NewPlusGrid(cc.c)
		for _, g := range diffGroups {
			p, err := NewPlanner(cc.c, grid, g.users, Config{})
			if err != nil {
				t.Fatal(err)
			}
			oprov, prov := testProvider(cc.c), testProvider(cc.c)
			for _, step := range []float64{2, 5} {
				for _, pol := range []Policy{MinMax, Sticky} {
					want, werr := oracleSimulate(p, oprov, pol, 0, cc.duration, step)
					got, gerr := p.Simulate(prov, pol, 0, cc.duration, step)
					if !sameErr(werr, gerr) || !sameResult(want, got) {
						t.Fatalf("%s/%s step %g %v: windowed session diverged from oracle\n got %+v, %v\nwant %+v, %v",
							cc.c.Name, g.name, step, pol, got, gerr, want, werr)
					}
					if werr != nil {
						gapStarts++
						continue
					}
					handoffs += len(want.Handoffs)
					if want.RTT.N() < int(cc.duration/step)+1 {
						gapSteps++
					}
				}
			}
			for _, t0 := range []float64{0, 61, 599.5, -300} {
				want, werr := oracleSelectSticky(p, oprov, t0)
				got, gerr := p.SelectSticky(prov, t0)
				if !sameErr(werr, gerr) || !sameCandidate(want, got) {
					t.Fatalf("%s/%s t0=%g: SelectSticky %+v, %v; oracle %+v, %v", cc.c.Name, g.name, t0, got, gerr, want, werr)
				}
				if werr != nil {
					continue
				}
				ww, wc := oracleTimeToExpiry(p, oprov, want.SatID, t0)
				gw, gc := p.TimeToExpiry(prov, want.SatID, t0)
				if math.Float64bits(ww) != math.Float64bits(gw) || wc != gc {
					t.Fatalf("%s/%s t0=%g: TimeToExpiry %v,%v; oracle %v,%v", cc.c.Name, g.name, t0, gw, gc, ww, wc)
				}
			}
		}
	}
	// The matrix must reach every branch the windows touch.
	if handoffs == 0 || gapStarts == 0 || gapSteps == 0 {
		t.Fatalf("matrix coverage: %d hand-offs, %d gap starts, %d sessions with gap steps — want all > 0",
			handoffs, gapStarts, gapSteps)
	}
}

// TestWindowHoldsPrefilterPassers checks the window property directly:
// every satellite that passes the centroid prefilter at t is in t's
// window, on and off the keyframe grid and at negative t.
func TestWindowHoldsPrefilterPassers(t *testing.T) {
	starlink, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*constellation.Constellation{starlink, walkerJ2(t)} {
		prov := testProvider(c)
		for _, g := range diffGroups {
			p, err := NewPlanner(c, nil, g.users, Config{})
			if err != nil {
				t.Fatal(err)
			}
			w := p.newWindow(prov)
			for _, tt := range []float64{0, 59.999, 60, math.Nextafter(120, 0), 61, 3599, -0.5, -60, -61, 86400.25} {
				if n := checkWindow(t, p, w, prov, tt); n == 0 && g.name == "west-africa" && c == starlink {
					t.Fatalf("t=%g: no prefilter passers for a covered group", tt)
				}
			}
		}
	}
}

// checkWindow asserts t's window holds every prefilter passer at t and
// returns how many there were.
func checkWindow(t testing.TB, p *Planner, w *window, prov *Provider, tt float64) int {
	t.Helper()
	in := map[int]bool{}
	for _, id := range w.candidates(tt) {
		in[id] = true
	}
	passers := 0
	for id, pos := range prov.At(tt) {
		rel := pos.Sub(p.centroid)
		if rel.Dot(rel) > p.prefilterChord2[id] {
			continue
		}
		passers++
		if !in[id] {
			t.Fatalf("t=%g: satellite %d passes the prefilter but is outside the window", tt, id)
		}
	}
	return passers
}

// fold maps any finite x into [lo, hi).
func fold(x, lo, hi float64) float64 {
	return lo + math.Mod(math.Abs(x), hi-lo)
}

// FuzzMeetupWindow builds a random Walker shell (altitude, inclination,
// planes, phasing, elevation mask, J2 on or off), a random user group, a
// random keyframe grid step and a random instant — negative, exactly on a
// grid boundary or one ulp below it — and checks that the candidate window
// holds every prefilter passer and that windowed MinMax and eligibility
// scans equal the full-frame ones bit for bit.
func FuzzMeetupWindow(f *testing.F) {
	f.Fuzz(func(t *testing.T, altKm, inclDeg float64, planes, perPlane, phase uint8, maskDeg float64, j2 bool,
		gridStep, latDeg, lonDeg, spreadKm float64, nUsers uint8, seed int64, tt float64, tMode uint8) {
		for _, x := range []float64{altKm, inclDeg, maskDeg, gridStep, latDeg, lonDeg, spreadKm, tt} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Skip()
			}
		}
		sh := constellation.Shell{
			Name:            "fuzz",
			AltitudeKm:      fold(altKm, 300, 2000),
			InclinationDeg:  fold(inclDeg, 0, 180),
			Planes:          1 + int(planes)%24,
			SatsPerPlane:    1 + int(perPlane)%24,
			MinElevationDeg: fold(maskDeg, 0, 60),
		}
		sh.PhaseFactor = int(phase) % sh.Planes
		c, err := constellation.Build("fuzz", []constellation.Shell{sh}, constellation.Config{Orbit: orbit.Options{J2: j2}})
		if err != nil {
			t.Fatal(err)
		}
		step := fold(gridStep, 1, 300)
		prov := NewProviderFor(ephem.New(c, ephem.Config{GridStepSec: step, Registry: obs.NewRegistry()}))

		center := geo.LatLon{LatDeg: fold(latDeg, -89, 89), LonDeg: fold(lonDeg, -180, 180)}
		spreadDeg := fold(spreadKm, 0, 2000) / 111
		users := []geo.LatLon{center}
		for i := 1; i < 1+int(nUsers)%6; i++ {
			// A cheap deterministic scatter around the centre.
			h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
			dx := float64(h>>11&0xffff)/0xffff - 0.5
			dy := float64(h>>32&0xffff)/0xffff - 0.5
			users = append(users, geo.LatLon{
				LatDeg: math.Max(-89.9, math.Min(89.9, center.LatDeg+dy*spreadDeg)),
				LonDeg: math.Remainder(center.LonDeg+dx*spreadDeg, 360),
			})
		}
		p, err := NewPlanner(c, isl.NewPlusGrid(c), users, Config{})
		if err != nil {
			t.Fatal(err)
		}

		tt = math.Copysign(math.Mod(tt, 1e6), tt)
		switch tMode % 3 {
		case 1:
			tt = math.Floor(tt/step) * step
		case 2:
			tt = math.Nextafter(math.Floor(tt/step)*step, math.Inf(-1))
		}
		w := p.newWindow(prov)
		checkWindow(t, p, w, prov, tt)

		snap := prov.At(tt)
		want, werr := p.SelectMinMax(snap)
		got, gerr := w.minMax(tt, -1)
		if !sameErr(werr, gerr) || !sameCandidate(want, got) {
			t.Fatalf("t=%g: windowed MinMax %+v, %v; full frame %+v, %v", tt, got, gerr, want, werr)
		}
		if werr == nil {
			wantEx, werrEx := oracleSelectMinMaxExcluding(p, snap, want.SatID)
			gotEx, gerrEx := w.minMax(tt, want.SatID)
			if !sameErr(werrEx, gerrEx) || !sameCandidate(wantEx, gotEx) {
				t.Fatalf("t=%g: windowed successor %+v, %v; full frame %+v, %v", tt, gotEx, gerrEx, wantEx, werrEx)
			}
		}
		wantElig, gotElig := p.Eligible(snap, nil), w.eligible(tt, nil)
		if len(wantElig) != len(gotElig) {
			t.Fatalf("t=%g: windowed eligible %v; full frame %v", tt, gotElig, wantElig)
		}
		for i := range wantElig {
			if !sameCandidate(wantElig[i], gotElig[i]) {
				t.Fatalf("t=%g: windowed eligible %v; full frame %v", tt, gotElig, wantElig)
			}
		}
	})
}
