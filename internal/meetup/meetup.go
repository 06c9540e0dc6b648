// Package meetup implements the paper's §5 meetup-server selection: the
// MinMax baseline (latency-optimal satellite at each instant) and the Sticky
// heuristic (prioritise stationarity by planning ahead over the predictable
// satellite motion). It also computes routed meetup placements for user
// groups too spread out to share one satellite's footprint (the §3.2 Kuiper
// example).
package meetup

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/constellation"
	"repro/internal/ephem"
	"repro/internal/geo"
	"repro/internal/isl"
	"repro/internal/netgraph"
	"repro/internal/units"
	"repro/internal/visibility"
)

// Policy selects how the meetup server is (re)chosen over time.
type Policy int

const (
	// MinMax re-picks the satellite minimising the group's maximum RTT at
	// every instant — the paper's baseline.
	MinMax Policy = iota
	// Sticky holds a carefully chosen satellite as long as possible: pick
	// from the near-optimal latency band the candidates that stay visible
	// longest, tie-broken by cheapest hand-off to their successor.
	Sticky
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case MinMax:
		return "minmax"
	case Sticky:
		return "sticky"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Config holds the Sticky knobs, with the paper's defaults.
type Config struct {
	// LatencyBand is the fractional latency slack over the MinMax optimum a
	// candidate may have (paper: 10%).
	LatencyBand float64
	// PoolSize is how many longest-visible candidates survive to the
	// tie-break (paper: 5).
	PoolSize int
	// LookaheadStepSec is the time resolution of the visibility lookahead.
	LookaheadStepSec float64
	// LookaheadHorizonSec caps the lookahead; candidates still visible at
	// the horizon are treated as equally long-lived.
	LookaheadHorizonSec float64
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		LatencyBand:         0.10,
		PoolSize:            5,
		LookaheadStepSec:    5,
		LookaheadHorizonSec: 1200,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.LatencyBand <= 0 {
		c.LatencyBand = d.LatencyBand
	}
	if c.PoolSize <= 0 {
		c.PoolSize = d.PoolSize
	}
	if c.LookaheadStepSec <= 0 {
		c.LookaheadStepSec = d.LookaheadStepSec
	}
	if c.LookaheadHorizonSec <= 0 {
		c.LookaheadHorizonSec = d.LookaheadHorizonSec
	}
	return c
}

// Candidate is a satellite eligible to host the group's meetup server.
type Candidate struct {
	// SatID identifies the satellite.
	SatID int
	// GroupRTTMs is the maximum round-trip time over the group's users,
	// each talking directly to the satellite.
	GroupRTTMs float64
}

// Provider supplies constellation snapshots by time. It lets many planners
// share one propagation pass per time step.
type Provider struct {
	eng *ephem.Engine
}

// NewProvider wraps a constellation in a caching snapshot provider backed
// by a private ephemeris engine.
func NewProvider(c *constellation.Constellation) *Provider {
	return NewProviderFor(ephem.New(c, ephem.Config{}))
}

// NewProviderFor wraps a shared ephemeris engine. Planners on the same
// engine — across sessions, policies, and goroutines — reuse each other's
// propagated frames.
func NewProviderFor(eng *ephem.Engine) *Provider { return &Provider{eng: eng} }

// At returns the ECEF snapshot at tSec. The returned slice is shared and
// immutable: callers may retain it but must not modify it.
func (p *Provider) At(tSec float64) []geo.Vec3 { return p.eng.SnapshotAt(tSec) }

// Ephemeris returns the backing engine.
func (p *Provider) Ephemeris() *ephem.Engine { return p.eng }

// Constellation returns the underlying constellation.
func (p *Provider) Constellation() *constellation.Constellation { return p.eng.Constellation() }

// Planner evaluates meetup-server choices for one user group against one
// constellation. Eligibility means direct visibility from every user — the
// regime of the paper's Fig 6/7 regional groups.
type Planner struct {
	c    *constellation.Constellation
	obs  *visibility.Observer
	grid *isl.Grid
	cfg  Config

	users    []geo.Vec3
	centroid geo.Vec3
	// prefilterChord[id]: a satellite farther than this from the group
	// centroid cannot be visible to all users; used to prune the per-step
	// candidate scan. prefilterChord2 holds the squares.
	prefilterChord, prefilterChord2 []float64
	// vMax[id] bounds satellite id's ECEF speed in km/s; with the chord it
	// sizes the candidate windows (window.go).
	vMax []float64
}

// NewPlanner builds a planner for the group. The grid may be shared across
// planners of the same constellation.
func NewPlanner(c *constellation.Constellation, grid *isl.Grid, users []geo.LatLon, cfg Config) (*Planner, error) {
	if len(users) == 0 {
		return nil, fmt.Errorf("meetup: empty user group")
	}
	p := &Planner{
		c:    c,
		obs:  visibility.NewObserver(c),
		grid: grid,
		cfg:  cfg.withDefaults(),
	}
	for _, u := range users {
		if !u.Valid() {
			return nil, fmt.Errorf("meetup: invalid user location %v", u)
		}
		p.users = append(p.users, u.ECEF())
	}
	p.centroid = geo.Centroid(users).ECEF()
	maxSpread := 0.0
	for _, u := range p.users {
		if d := u.Distance(p.centroid); d > maxSpread {
			maxSpread = d
		}
	}
	p.prefilterChord = make([]float64, c.Size())
	p.prefilterChord2 = make([]float64, c.Size())
	p.vMax = make([]float64, c.Size())
	for id, s := range c.Satellites {
		sh := c.Shells[s.ShellIndex]
		d := visibility.MaxSlantRangeKm(sh.AltitudeKm, sh.MinElevationDeg) + maxSpread
		p.prefilterChord[id], p.prefilterChord2[id] = d, d*d
		p.vMax[id] = speedBoundKmS(s.Prop)
	}
	return p, nil
}

// Users returns the group size.
func (p *Planner) Users() int { return len(p.users) }

// groupRTT returns the max RTT over users to satellite id at pos, and
// whether the satellite is visible to every user.
func (p *Planner) groupRTT(id int, pos geo.Vec3) (float64, bool) {
	worst := 0.0
	for _, u := range p.users {
		rel := pos.Sub(u)
		d2 := rel.Dot(rel)
		if !p.obs.Visible(u, id, pos) {
			return 0, false
		}
		if rtt := units.RTTMs(math.Sqrt(d2)); rtt > worst {
			worst = rtt
		}
	}
	return worst, true
}

// candidate applies the centroid prefilter, then groupRTT, to satellite id
// at pos.
func (p *Planner) candidate(id int, pos geo.Vec3) (float64, bool) {
	rel := pos.Sub(p.centroid)
	if rel.Dot(rel) > p.prefilterChord2[id] {
		return 0, false
	}
	return p.groupRTT(id, pos)
}

// Eligible appends all candidates at the snapshot to dst and returns it.
func (p *Planner) Eligible(snap []geo.Vec3, dst []Candidate) []Candidate {
	for id, pos := range snap {
		if rtt, ok := p.candidate(id, pos); ok {
			dst = append(dst, Candidate{SatID: id, GroupRTTMs: rtt})
		}
	}
	return dst
}

// ErrNoCandidate is returned when no satellite is visible to all users.
var ErrNoCandidate = fmt.Errorf("meetup: no satellite visible to the whole group")

// SelectMinMax returns the candidate minimising the group's max RTT.
func (p *Planner) SelectMinMax(snap []geo.Vec3) (Candidate, error) {
	best := Candidate{SatID: -1, GroupRTTMs: math.Inf(1)}
	for id, pos := range snap {
		if rtt, ok := p.candidate(id, pos); ok && rtt < best.GroupRTTMs {
			best = Candidate{SatID: id, GroupRTTMs: rtt}
		}
	}
	if best.SatID < 0 {
		return Candidate{}, ErrNoCandidate
	}
	return best, nil
}

// SelectSticky runs the paper's three-step heuristic at time t0:
//
//  1. candidates within LatencyBand of the MinMax optimum,
//  2. the PoolSize candidates with the longest time until hand-off,
//  3. among those, the one whose eventual hand-off to its successor is
//     cheapest (lowest state-transfer latency).
func (p *Planner) SelectSticky(prov *Provider, t0 float64) (Candidate, error) {
	return p.selectSticky(p.newWindow(prov), t0)
}

func (p *Planner) selectSticky(w *window, t0 float64) (Candidate, error) {
	elig := w.eligible(t0, nil)
	if len(elig) == 0 {
		return Candidate{}, ErrNoCandidate
	}
	minRTT := math.Inf(1)
	for _, c := range elig {
		if c.GroupRTTMs < minRTT {
			minRTT = c.GroupRTTMs
		}
	}
	var band []Candidate
	for _, c := range elig {
		if c.GroupRTTMs <= minRTT*(1+p.cfg.LatencyBand) {
			band = append(band, c)
		}
	}

	// Lookahead: march forward in time, dropping band members as they lose
	// full-group visibility; record each member's end time. Only the
	// members still alive are propagated.
	end := make(map[int]float64, len(band))
	alive := make([]int, len(band))
	for i, c := range band {
		alive[i] = c.SatID
	}
	horizon := t0 + p.cfg.LookaheadHorizonSec
	for t := t0 + p.cfg.LookaheadStepSec; t <= horizon && len(alive) > 0; t += p.cfg.LookaheadStepSec {
		w.pos = w.prov.eng.PositionsAt(t, alive, w.pos)
		keep := alive[:0]
		for i, id := range alive {
			if _, ok := p.groupRTT(id, w.pos[i]); ok {
				keep = append(keep, id)
			} else {
				end[id] = t
			}
		}
		alive = keep
	}
	for _, id := range alive { // censored at the horizon
		end[id] = horizon
	}

	// Top PoolSize by time-until-hand-off (stable on RTT then ID for
	// determinism).
	sort.SliceStable(band, func(i, j int) bool {
		ei, ej := end[band[i].SatID], end[band[j].SatID]
		if ei != ej {
			return ei > ej
		}
		if band[i].GroupRTTMs != band[j].GroupRTTMs {
			return band[i].GroupRTTMs < band[j].GroupRTTMs
		}
		return band[i].SatID < band[j].SatID
	})
	pool := band
	if len(pool) > p.cfg.PoolSize {
		pool = pool[:p.cfg.PoolSize]
	}

	// Tie-break: cheapest hand-off to the successor at each candidate's end
	// time. Successor = the MinMax choice then (excluding the candidate).
	// best keeps its t0 RTT from the eligibility scan.
	best := pool[0]
	bestTransfer := math.Inf(1)
	for _, c := range pool {
		te := end[c.SatID]
		succ, err := w.minMax(te, c.SatID)
		if err != nil {
			continue
		}
		tr, err := p.TransferLatencyMs(w.prov.At(te), c.SatID, succ.SatID)
		if err != nil {
			continue
		}
		if tr < bestTransfer {
			bestTransfer = tr
			best = c
		}
	}
	return best, nil
}

// TransferLatencyMs returns the one-way state-transfer latency from sat a to
// sat b at the snapshot: the cheaper of (1) the shortest ISL path and (2) a
// ground relay through the group's region (down to a ground station at the
// group centroid, back up). The relay covers cross-shell pairs — the +grid
// does not link shells — and the long-way-around +grid cases where an
// ascending and a descending satellite cover the same region from distant
// planes.
func (p *Planner) TransferLatencyMs(snap []geo.Vec3, a, b int) (float64, error) {
	if a < 0 || a >= len(snap) || b < 0 || b >= len(snap) {
		return 0, fmt.Errorf("meetup: transfer satellites out of range (a=%d b=%d sats=%d)", a, b, len(snap))
	}
	if a == b {
		return 0, nil
	}
	relay := units.PropagationDelayMs(snap[a].Distance(p.centroid) + p.centroid.Distance(snap[b]))
	path, err := netgraph.ISLShortest(p.grid, snap, a, b)
	if err != nil {
		// Different shells: the grid has no path; the relay is the route.
		return relay, nil
	}
	return math.Min(path.OneWayMs, relay), nil
}

// TimeToExpiry returns how long satellite satID remains visible to the
// whole group after t0 — the warning time a migration planner has before
// the hand-off must complete. Scans forward at the Sticky lookahead step;
// capped at the lookahead horizon (returned with capped=true).
func (p *Planner) TimeToExpiry(prov *Provider, satID int, t0 float64) (warnSec float64, capped bool) {
	horizon := t0 + p.cfg.LookaheadHorizonSec
	for t := t0 + p.cfg.LookaheadStepSec; t <= horizon; t += p.cfg.LookaheadStepSec {
		if _, ok := p.groupRTT(satID, prov.eng.PositionAt(satID, t)); !ok {
			return t - t0, false
		}
	}
	return p.cfg.LookaheadHorizonSec, true
}
