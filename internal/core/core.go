// Package core is the paper's primary contribution assembled as a usable
// system: in-orbit computing as a service over a LEO mega-constellation.
// A Service wraps a constellation with satellite-servers and answers the
// three questions the paper poses:
//
//   - edge computing (§3.1): what compute can this ground location reach,
//     at what latency, right now?
//   - multi-user interaction (§3.2/§5): where should a user group's meetup
//     server run, and how does it stay "virtually stationary" as satellites
//     pass?
//   - space-native data (§3.3): how much sensing does in-orbit processing
//     unlock?
package core

import (
	"fmt"
	"math"

	"repro/internal/compute"
	"repro/internal/constellation"
	"repro/internal/ephem"
	"repro/internal/feasibility"
	"repro/internal/geo"
	"repro/internal/isl"
	"repro/internal/meetup"
	"repro/internal/migrate"
	"repro/internal/units"
	"repro/internal/visibility"
)

// ConstellationChoice selects a preset constellation.
type ConstellationChoice string

// Preset constellation names.
const (
	Starlink ConstellationChoice = "starlink-phase1"
	Kuiper   ConstellationChoice = "kuiper"
	Telesat  ConstellationChoice = "telesat"
)

// Options configures a Service.
type Options struct {
	// Server is the per-satellite compute payload; zero value means the
	// paper's HPE DL325 reference.
	Server compute.ServerSpec
	// Meetup holds the Sticky parameters; zero value means the paper's.
	Meetup meetup.Config
	// ISLBandwidthGbps is the inter-satellite link capacity used for state
	// migration; zero means the default laser-terminal class rate.
	ISLBandwidthGbps float64
	// Ephem tunes the service-wide ephemeris engine (workers, cache
	// tiers, keyframe grid); the zero value uses the ephem defaults.
	Ephem ephem.Config
}

// Service is the in-orbit computing service over one constellation.
type Service struct {
	constellation *constellation.Constellation
	observer      *visibility.Observer
	grid          *isl.Grid
	ephem         *ephem.Engine
	provider      *meetup.Provider
	opts          Options
}

// NewService builds the service for a preset constellation.
func NewService(choice ConstellationChoice, opts Options) (*Service, error) {
	var (
		c   *constellation.Constellation
		err error
	)
	switch choice {
	case Starlink:
		c, err = constellation.StarlinkPhase1(constellation.Config{})
	case Kuiper:
		c, err = constellation.Kuiper(constellation.Config{})
	case Telesat:
		c, err = constellation.Telesat(constellation.Config{})
	default:
		return nil, fmt.Errorf("core: unknown constellation %q", choice)
	}
	if err != nil {
		return nil, err
	}
	return NewServiceFor(c, opts)
}

// NewServiceFor builds the service over a caller-provided constellation.
func NewServiceFor(c *constellation.Constellation, opts Options) (*Service, error) {
	if c == nil || c.Size() == 0 {
		return nil, fmt.Errorf("core: empty constellation")
	}
	if opts.Server == (compute.ServerSpec{}) {
		opts.Server = compute.DefaultServerSpec()
	}
	if err := opts.Server.Validate(); err != nil {
		return nil, err
	}
	if opts.ISLBandwidthGbps == 0 {
		opts.ISLBandwidthGbps = isl.BandwidthGbps
	}
	if opts.ISLBandwidthGbps < 0 {
		return nil, fmt.Errorf("core: negative ISL bandwidth")
	}
	// One engine serves every snapshot consumer in the service: the
	// provider (meetup planners, virtual servers), the observer's pass
	// sweeps, and group networks built over the provider.
	eng := ephem.New(c, opts.Ephem)
	return &Service{
		constellation: c,
		observer:      visibility.NewObserver(c).UseEphemeris(eng),
		grid:          isl.NewPlusGrid(c),
		ephem:         eng,
		provider:      meetup.NewProviderFor(eng),
		opts:          opts,
	}, nil
}

// Constellation exposes the underlying constellation.
func (s *Service) Constellation() *constellation.Constellation { return s.constellation }

// Observer exposes the visibility evaluator.
func (s *Service) Observer() *visibility.Observer { return s.observer }

// Grid exposes the ISL topology.
func (s *Service) Grid() *isl.Grid { return s.grid }

// Provider exposes the shared snapshot provider.
func (s *Service) Provider() *meetup.Provider { return s.provider }

// Ephemeris exposes the service-wide ephemeris engine.
func (s *Service) Ephemeris() *ephem.Engine { return s.ephem }

// Servers returns the total number of satellite-servers.
func (s *Service) Servers() int { return s.constellation.Size() }

// EdgeView is the answer to "what compute can I reach from here, now".
type EdgeView struct {
	// Reachable lists every satellite-server in view, nearest first not
	// guaranteed — use Nearest for the optimum.
	Reachable []visibility.Pass
	// NearestRTTMs is the RTT to the closest server; +Inf when uncovered.
	NearestRTTMs float64
	// FarthestRTTMs is the RTT to the farthest directly reachable server.
	FarthestRTTMs float64
	// TotalCores is the aggregate effective core count in view.
	TotalCores float64
}

// Edge evaluates the edge-computing view from a ground location at tSec.
func (s *Service) Edge(tSec float64, loc geo.LatLon) (EdgeView, error) {
	if !loc.Valid() {
		return EdgeView{}, fmt.Errorf("core: invalid location %v", loc)
	}
	snap := s.provider.At(tSec)
	g := loc.ECEF()
	passes := s.observer.Reachable(g, snap, nil)
	view := EdgeView{Reachable: passes}
	near, far, ok := s.observer.NearestFarthest(g, snap)
	if !ok {
		view.NearestRTTMs = math.Inf(1)
		view.FarthestRTTMs = math.Inf(1)
		return view, nil
	}
	view.NearestRTTMs = units.RTTMs(near)
	view.FarthestRTTMs = units.RTTMs(far)
	view.TotalCores = float64(len(passes)) * s.opts.Server.EffectiveCores()
	return view, nil
}

// Covered reports whether the location can reach any server at tSec.
func (s *Service) Covered(tSec float64, loc geo.LatLon) bool {
	snap := s.provider.At(tSec)
	_, _, ok := s.observer.Nearest(loc.ECEF(), snap)
	return ok
}

// Meetup builds a meetup planner for a user group, sharing the service's
// grid and snapshot provider.
func (s *Service) Meetup(users []geo.LatLon) (*meetup.Planner, error) {
	return meetup.NewPlanner(s.constellation, s.grid, users, s.opts.Meetup)
}

// Feasibility runs the §4 analysis with the paper's defaults.
func (s *Service) Feasibility() (feasibility.Report, error) {
	return feasibility.Analyze(feasibility.Default())
}

// VirtualServer is the paper's headline abstraction: a logical server that
// appears stationary above a user group while physically hopping between
// satellites, with state migrated ahead of every hand-off.
type VirtualServer struct {
	svc     *Service
	planner *meetup.Planner
	policy  meetup.Policy
	state   migrate.State
}

// PlaceVirtualServer creates a virtual server for the group under the given
// selection policy and application state profile.
func (s *Service) PlaceVirtualServer(users []geo.LatLon, policy meetup.Policy, state migrate.State) (*VirtualServer, error) {
	if err := state.Validate(); err != nil {
		return nil, err
	}
	p, err := s.Meetup(users)
	if err != nil {
		return nil, err
	}
	return &VirtualServer{svc: s, planner: p, policy: policy, state: state}, nil
}

// RunReport extends the meetup session result with migration costs.
type RunReport struct {
	meetup.SessionResult
	// Migrations holds the per-hand-off live-migration results, aligned
	// with SessionResult.Handoffs.
	Migrations []migrate.Result
	// TotalDowntimeSec sums the stop-and-copy pauses over the session.
	TotalDowntimeSec float64
	// GEOAdvantage is how many times lower the session's mean RTT is than
	// a GEO hop — the "GEO-like stationarity without the GEO latency
	// penalty" number.
	GEOAdvantage float64
}

// Run simulates the virtual server from t0 for durationSec at stepSec
// resolution: server selection + hand-offs per policy, and a live migration
// of the application state at every hand-off.
func (v *VirtualServer) Run(t0, durationSec, stepSec float64) (RunReport, error) {
	res, err := v.planner.Simulate(v.svc.provider, v.policy, t0, durationSec, stepSec)
	if err != nil {
		return RunReport{}, err
	}
	rep := RunReport{SessionResult: res}
	bw := migrate.GbpsToMBps(v.svc.opts.ISLBandwidthGbps)
	for _, h := range res.Handoffs {
		m, err := migrate.Live(v.state, migrate.Link{BandwidthMBps: bw, OneWayMs: h.TransferMs},
			migrate.LiveConfig{GenericReplicatedAhead: true})
		if err != nil {
			return RunReport{}, fmt.Errorf("core: migration at t=%.0fs: %w", h.TimeSec, err)
		}
		rep.Migrations = append(rep.Migrations, m)
		rep.TotalDowntimeSec += m.DowntimeSec
	}
	if res.RTT.Mean() > 0 {
		rep.GEOAdvantage = migrate.GEOComparison(res.RTT.Mean())
	}
	return rep, nil
}

// Policy returns the virtual server's selection policy.
func (v *VirtualServer) Policy() meetup.Policy { return v.policy }
