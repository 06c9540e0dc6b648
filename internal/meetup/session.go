package meetup

import (
	"fmt"

	"repro/internal/stats"
)

// Handoff records one meetup-server migration event during a session.
type Handoff struct {
	// TimeSec is when the hand-off happened (seconds after epoch).
	TimeSec float64
	// From and To are the satellite IDs involved.
	From, To int
	// TransferMs is the one-way state-transfer latency over the ISL grid at
	// hand-off time.
	TransferMs float64
	// HeldSec is how long From had been the meetup server.
	HeldSec float64
}

// SessionResult summarises one simulated session under a policy.
type SessionResult struct {
	// Policy that ran the session.
	Policy Policy
	// StartSec and DurationSec delimit the session.
	StartSec, DurationSec float64
	// Handoffs in time order.
	Handoffs []Handoff
	// RTT aggregates the group max-RTT sampled every step.
	RTT stats.Summary
	// FinalHoldSec is how long the last server had been held at session end
	// (censored — not a hand-off interval).
	FinalHoldSec float64
}

// HandoffIntervals returns the completed times-between-hand-offs (the Fig 6
// samples).
func (r SessionResult) HandoffIntervals() []float64 {
	out := make([]float64, 0, len(r.Handoffs))
	for _, h := range r.Handoffs {
		out = append(out, h.HeldSec)
	}
	return out
}

// TransferLatencies returns the per-hand-off state-transfer latencies (the
// Fig 7 samples).
func (r SessionResult) TransferLatencies() []float64 {
	out := make([]float64, 0, len(r.Handoffs))
	for _, h := range r.Handoffs {
		out = append(out, h.TransferMs)
	}
	return out
}

// Simulate runs one session of the given policy: the group holds a meetup
// server, migrating per policy, from t0 for durationSec, evaluated every
// stepSec.
//
// MinMax switches whenever the latency-optimal satellite changes (the
// paper's "picks the latency-optimal satellite at each instant"). Sticky
// re-runs the Sticky selection only when the current server stops being
// visible to the whole group.
//
// Each step reads the current server's position alone; MinMax scans and
// Sticky selections read their candidate window (window.go). Only a
// hand-off, whose ISL transfer pricing needs every satellite, fetches a
// full frame.
func (p *Planner) Simulate(prov *Provider, policy Policy, t0, durationSec, stepSec float64) (SessionResult, error) {
	if durationSec <= 0 || stepSec <= 0 {
		return SessionResult{}, fmt.Errorf("meetup: bad session bounds duration=%v step=%v", durationSec, stepSec)
	}
	res := SessionResult{Policy: policy, StartSec: t0, DurationSec: durationSec}
	w := p.newWindow(prov)

	sel := func(t float64) (Candidate, error) {
		if policy == Sticky {
			return p.selectSticky(w, t)
		}
		return w.minMax(t, -1)
	}

	cur, err := sel(t0)
	if err != nil {
		return SessionResult{}, fmt.Errorf("meetup: initial selection: %w", err)
	}
	heldSince := t0
	res.RTT.Add(cur.GroupRTTMs)

	for t := t0 + stepSec; t <= t0+durationSec; t += stepSec {
		rtt, visible := p.groupRTT(cur.SatID, prov.eng.PositionAt(cur.SatID, t))

		needSwitch := false
		var next Candidate
		switch policy {
		case MinMax:
			mm, err := w.minMax(t, -1)
			if err != nil {
				// Coverage gap: no server for the group at all. Keep the
				// (invisible) current selection pending and retry; counts as
				// a visibility loss below.
				if !visible {
					continue
				}
				res.RTT.Add(rtt)
				continue
			}
			if mm.SatID != cur.SatID {
				needSwitch, next = true, mm
			}
		case Sticky:
			if !visible {
				st, err := p.selectSticky(w, t)
				if err != nil {
					continue // coverage gap; retry next step
				}
				needSwitch, next = true, st
			}
		default:
			return SessionResult{}, fmt.Errorf("meetup: unknown policy %v", policy)
		}

		if needSwitch {
			transfer, terr := p.TransferLatencyMs(prov.At(t), cur.SatID, next.SatID)
			if terr != nil {
				transfer = 0 // disconnected grid (degenerate topologies only)
			}
			res.Handoffs = append(res.Handoffs, Handoff{
				TimeSec:    t,
				From:       cur.SatID,
				To:         next.SatID,
				TransferMs: transfer,
				HeldSec:    t - heldSince,
			})
			cur = next
			heldSince = t
			res.RTT.Add(cur.GroupRTTMs)
			continue
		}
		if visible {
			res.RTT.Add(rtt)
		}
	}
	res.FinalHoldSec = t0 + durationSec - heldSince
	return res, nil
}
