package meetup

import (
	"math"

	"repro/internal/geo"
	"repro/internal/orbit"
	"repro/internal/units"
)

// Candidate windows. A full MinMax or eligibility scan tests every
// satellite against the centroid prefilter, but only the few dozen above
// the group can pass it. The window of keyframe interval
// [k·G, (k+1)·G), G the engine's GridStepSec, holds the satellites whose
// position in the grid keyframe prov.At(k·G) lies within prefilterChord +
// vMax·G of the centroid: a satellite moves at most vMax·G in one
// interval, so every prefilter passer at any t of the interval is in it.
// Scans read exact positions for the window only and run the prefilter and
// groupRTT on them in ascending id order, so their results — ties
// included — are the full-frame scans' bit for bit. Keyframes sit in the
// engine's protected grid tier, shared by every group and both policies.

// windowVMargin inflates the analytic ECEF speed bound against rounding,
// as netgraph's delta-freeze certificates do.
const windowVMargin = 1.05

// speedBoundKmS bounds a satellite's ECEF speed: the inertial speed of a
// circular orbit whose node drifts, r·(n + |Ω̇|), plus the frame
// rotation's carry ω⊕·r.
func speedBoundKmS(prop *orbit.Propagator) float64 {
	e := prop.Elements()
	r := e.SemiMajorAxisKm()
	return windowVMargin * (r*(e.MeanMotionRadS()+math.Abs(prop.RAANRateRadS())) + units.EarthRotationRadS*r)
}

// window is the candidate window state of one Simulate or SelectSticky
// call, so that Planner itself stays immutable. It keeps the last window
// built; Sticky's excursions to tie-break end times rebuild it, which
// measured no slower than keeping several.
type window struct {
	p     *Planner
	prov  *Provider
	step  float64
	built bool // ids holds the window of keyframe index k
	k     int64
	ids   []int
	pos   []geo.Vec3 // exact positions scratch
}

func (p *Planner) newWindow(prov *Provider) *window {
	return &window{p: p, prov: prov, step: prov.eng.GridStepSec()}
}

// candidates returns the window of the keyframe interval enclosing t, in
// ascending id order.
func (w *window) candidates(t float64) []int {
	k := int64(math.Floor(t / w.step))
	if w.built && w.k == k {
		return w.ids
	}
	w.built, w.k, w.ids = true, k, w.ids[:0]
	keyframe := w.prov.At(float64(k) * w.step)
	for id, pos := range keyframe {
		r := w.p.prefilterChord[id] + w.p.vMax[id]*w.step
		rel := pos.Sub(w.p.centroid)
		if rel.Dot(rel) <= r*r {
			w.ids = append(w.ids, id)
		}
	}
	return w.ids
}

// at returns t's window and its satellites' exact positions at t. The
// positions stay valid until the next read through w.
func (w *window) at(t float64) ([]int, []geo.Vec3) {
	ids := w.candidates(t)
	w.pos = w.prov.eng.PositionsAt(t, ids, w.pos)
	return ids, w.pos
}

// eligible is Eligible(prov.At(t), dst) over t's window.
func (w *window) eligible(t float64, dst []Candidate) []Candidate {
	ids, pos := w.at(t)
	for i, id := range ids {
		if rtt, ok := w.p.candidate(id, pos[i]); ok {
			dst = append(dst, Candidate{SatID: id, GroupRTTMs: rtt})
		}
	}
	return dst
}

// minMax is SelectMinMax(prov.At(t)) over t's window, never choosing
// satellite exclude (-1 excludes none).
func (w *window) minMax(t float64, exclude int) (Candidate, error) {
	ids, pos := w.at(t)
	best := Candidate{SatID: -1, GroupRTTMs: math.Inf(1)}
	for i, id := range ids {
		if id == exclude {
			continue
		}
		if rtt, ok := w.p.candidate(id, pos[i]); ok && rtt < best.GroupRTTMs {
			best = Candidate{SatID: id, GroupRTTMs: rtt}
		}
	}
	if best.SatID < 0 {
		return Candidate{}, ErrNoCandidate
	}
	return best, nil
}
