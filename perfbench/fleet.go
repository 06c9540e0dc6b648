package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/constellation"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/trace"
)

// fleetRun drives the fleet control plane: persistent groups plus Poisson
// churn over Starlink, stepped in 60 s epochs (cmd/fleetsim's defaults at
// a tenth of its million-session headline).
type fleetRun struct {
	size    string
	variant int

	orch    *fleet.Orchestrator
	churn   []arrival
	epochN  int
	reports []fleet.EpochReport
	epochMs []float64
	fails   []string

	startS        float64
	stepAllocB    uint64
	sessionEpochs int
}

type arrival struct {
	at   float64
	sess *fleet.Session
}

const (
	fleetStepSec  = 60
	fleetChurnHz  = 2
	fleetDwellSec = 1800
)

func (f *fleetRun) shape() (sessions, epochs int) {
	if f.size == sizeSmoke {
		return 2000, 4
	}
	return 100000, 20
}

// setup builds the constellation, the seeded session population, the
// orchestrator, and starts it at t=0.
func (f *fleetRun) setup(tr *tracer) (float64, error) {
	t0 := time.Now()
	sessions, epochs := f.shape()
	f.epochN = epochs
	tr.begin("setup.constellation")
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	tr.end()
	if err != nil {
		return 0, err
	}
	tr.begin("setup.sessions")
	persistent, churn, err := fleetSessions(int64(f.variant)+1, sessions, float64(epochs*fleetStepSec))
	tr.end()
	if err != nil {
		return 0, err
	}
	f.churn = churn
	tr.begin("fleet.New")
	f.orch, err = fleet.New(c, nil, fleet.Config{
		StepSec:          fleetStepSec,
		ExpectedSessions: sessions,
		Registry:         obs.NewRegistry(),
	})
	if err == nil {
		err = f.orch.SubmitBatch(persistent)
	}
	tr.end()
	if err != nil {
		return 0, err
	}
	ts := time.Now()
	tr.begin("fleet.Start")
	err = f.orch.Start(0)
	tr.end()
	f.startS = time.Since(ts).Seconds()
	return time.Since(t0).Seconds(), err
}

// fleetSessions generates the workload the way cmd/fleetsim does: groups
// of 2..5 users within 300 km of a population-weighted anchor city, half a
// core each, and a Poisson stream of transient groups with exponential
// dwell times.
func fleetSessions(seed int64, sessions int, horizonSec float64) ([]*fleet.Session, []arrival, error) {
	times := trace.Poisson(seed+1, fleetChurnHz, horizonSec)
	groups, err := trace.Groups(trace.GroupConfig{
		Seed:         seed,
		Groups:       sessions + len(times),
		MinUsers:     2,
		MaxUsers:     5,
		SpreadKm:     300,
		MaxAbsLatDeg: 55,
	})
	if err != nil {
		return nil, nil, err
	}
	r := rand.New(rand.NewSource(seed + 2))
	persistent := make([]*fleet.Session, 0, sessions)
	var churn []arrival
	for i, g := range groups {
		s, err := fleet.NewSession(uint64(i+1), g.Users)
		if err != nil {
			return nil, nil, err
		}
		s.StateMB = trace.StateSizeMB(r, 64, 0.5)
		s.CoresDemand = 0.5
		if i < sessions {
			persistent = append(persistent, s)
			continue
		}
		at := times[i-sessions]
		s.ExpiresAt = at + r.ExpFloat64()*fleetDwellSec
		churn = append(churn, arrival{at: at, sess: s})
	}
	return persistent, churn, nil
}

func (f *fleetRun) timed(tr *tracer) error {
	next := 0
	var m0, m1 runtime.MemStats
	for e := 0; e < f.epochN; e++ {
		for next < len(f.churn) && f.churn[next].at <= f.orch.Now() {
			if err := f.orch.Submit(f.churn[next].sess); err != nil {
				return err
			}
			next++
		}
		if tr != nil {
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		tr.begin("fleet.Step")
		rep, err := f.orch.Step()
		tr.end()
		f.epochMs = append(f.epochMs, float64(time.Since(t0).Nanoseconds())/1e6)
		if tr != nil {
			runtime.ReadMemStats(&m1)
			f.stepAllocB += m1.TotalAlloc - m0.TotalAlloc
		}
		if err != nil {
			return err
		}
		f.reports = append(f.reports, rep)
		f.sessionEpochs += rep.Sessions
		f.fails = append(f.fails, epochFailures(e, rep, f.orch.Utilization())...)
	}
	return nil
}

// epochFailures checks one epoch: no more assignments than sessions, and
// no satellite loaded past its capacity.
func epochFailures(e int, rep fleet.EpochReport, util []float64) []string {
	var fails []string
	if rep.Assigned > rep.Sessions {
		fails = append(fails, fmt.Sprintf("epoch %d: %d assigned > %d sessions", e, rep.Assigned, rep.Sessions))
	}
	for id, u := range util {
		if u > 1 {
			fails = append(fails, fmt.Sprintf("epoch %d: satellite %d utilisation %g > 1", e, id, u))
			break
		}
	}
	return fails
}

func (f *fleetRun) check() []string {
	fails := f.fails
	if len(f.reports) != f.epochN {
		fails = append(fails, fmt.Sprintf("ran %d of %d epochs", len(f.reports), f.epochN))
	}
	st := f.orch.Stats()
	if st.Assigned > st.Sessions || st.Handoffs == 0 || st.Placements == 0 {
		fails = append(fails, fmt.Sprintf("final state: %d assigned of %d sessions, %d placements, %d hand-offs",
			st.Assigned, st.Sessions, st.Placements, st.Handoffs))
	}
	return fails
}

// digest covers every deterministic field of the epoch reports and the
// final stats; wall-clock fields (WallSec, ReplanMs) are left out.
func (f *fleetRun) digest() string {
	d := newDigester()
	for _, r := range f.reports {
		d.add("epoch", r.TSec, r.Sessions, r.Assigned, r.Expiring, r.Placements, r.Handoffs,
			r.Rejections, r.Departures, r.MeanUtilization,
			r.Transfer.N(), r.Transfer.Min(), r.Transfer.Max(),
			r.Downtime.N(), r.Downtime.Min(), r.Downtime.Max())
	}
	st := f.orch.Stats()
	d.add("stats", st.TSec, st.Sessions, st.Assigned, st.LoadedSats, st.Placements, st.Handoffs,
		st.Rejections, st.Departures, st.Epochs, st.Expiring, st.UtilizationP50, st.UtilizationP90,
		st.UtilizationMax, st.TransferMs.Count, st.TransferMs.P50, st.TransferMs.P99, st.TransferMs.Max)
	for _, u := range f.orch.Utilization() {
		d.add("u", u)
	}
	return d.sum()
}

func (f *fleetRun) layer(vals map[string]float64, tr *tracer, wall float64) {
	es := f.orch.Ephemeris().Stats()
	vals["ephem.propagations"] = float64(es.PropagatedSats)
	vals["ephem.hit_ratio"] = finite(float64(es.Hits) / float64(es.Hits+es.Misses))
	st := f.orch.Stats()
	vals["fleet.start_s"] = f.startS
	step := 0.0
	for _, ms := range f.epochMs {
		step += ms / 1e3
	}
	vals["fleet.step_s"] = step
	vals["fleet.session_epochs_per_s"] = finite(float64(f.sessionEpochs) / wall)
	vals["fleet.replan_us_p50"] = st.ReplanMs.P50 * 1e3
	vals["fleet.replan_us_p99"] = st.ReplanMs.P99 * 1e3
	if n := len(st.ShardWork); n > 0 {
		sum, max := 0, 0
		for _, w := range st.ShardWork {
			sum += w
			if w > max {
				max = w
			}
		}
		vals["fleet.shard_imbalance"] = finite(float64(max) * float64(n) / float64(sum))
	}
	vals["fleet.alloc_b_per_session_epoch"] = finite(float64(f.stepAllocB) / float64(f.sessionEpochs))
	vals["fleet.handoffs"] = float64(st.Handoffs)
	vals["fleet.placements"] = float64(st.Placements)
	vals["fleet.rejections"] = float64(st.Rejections)
}

// probe: the fleet prices hand-offs on a groundless network chained at the
// epoch step.
func (f *fleetRun) probe() probeShape { return probeShape{stepSec: fleetStepSec} }
