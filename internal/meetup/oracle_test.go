package meetup

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geo"
)

// The oracle: Simulate, SelectSticky and TimeToExpiry as they ran before
// per-satellite reads and candidate windows, every step, lookahead sample
// and tie-break scan reading a full frame through prov.At. The
// differential tests hold the production paths to these bit for bit.

func oracleSelectMinMaxExcluding(p *Planner, snap []geo.Vec3, exclude int) (Candidate, error) {
	best := Candidate{SatID: -1, GroupRTTMs: math.Inf(1)}
	for id, pos := range snap {
		if id == exclude {
			continue
		}
		rel := pos.Sub(p.centroid)
		if rel.Dot(rel) > p.prefilterChord2[id] {
			continue
		}
		if rtt, ok := p.groupRTT(id, pos); ok && rtt < best.GroupRTTMs {
			best = Candidate{SatID: id, GroupRTTMs: rtt}
		}
	}
	if best.SatID < 0 {
		return Candidate{}, ErrNoCandidate
	}
	return best, nil
}

func oracleSelectSticky(p *Planner, prov *Provider, t0 float64) (Candidate, error) {
	snap := prov.At(t0)
	elig := p.Eligible(snap, nil)
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

	end := make(map[int]float64, len(band))
	alive := make([]Candidate, len(band))
	copy(alive, band)
	horizon := t0 + p.cfg.LookaheadHorizonSec
	for t := t0 + p.cfg.LookaheadStepSec; t <= horizon && len(alive) > 0; t += p.cfg.LookaheadStepSec {
		fsnap := prov.At(t)
		keep := alive[:0]
		for _, c := range alive {
			if _, ok := p.groupRTT(c.SatID, fsnap[c.SatID]); ok {
				keep = append(keep, c)
			} else {
				end[c.SatID] = t
			}
		}
		alive = keep
	}
	for _, c := range alive {
		end[c.SatID] = horizon
	}

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

	best := pool[0]
	bestTransfer := math.Inf(1)
	for _, c := range pool {
		te := end[c.SatID]
		fsnap := prov.At(te)
		succ, err := oracleSelectMinMaxExcluding(p, fsnap, c.SatID)
		if err != nil {
			continue
		}
		tr, err := p.TransferLatencyMs(fsnap, c.SatID, succ.SatID)
		if err != nil {
			continue
		}
		if tr < bestTransfer {
			bestTransfer = tr
			best = c
		}
	}
	snap = prov.At(t0)
	if rtt, ok := p.groupRTT(best.SatID, snap[best.SatID]); ok {
		best.GroupRTTMs = rtt
	}
	return best, nil
}

func oracleTimeToExpiry(p *Planner, prov *Provider, satID int, t0 float64) (float64, bool) {
	horizon := t0 + p.cfg.LookaheadHorizonSec
	for t := t0 + p.cfg.LookaheadStepSec; t <= horizon; t += p.cfg.LookaheadStepSec {
		if _, ok := p.groupRTT(satID, prov.At(t)[satID]); !ok {
			return t - t0, false
		}
	}
	return p.cfg.LookaheadHorizonSec, true
}

func oracleSimulate(p *Planner, prov *Provider, policy Policy, t0, durationSec, stepSec float64) (SessionResult, error) {
	if durationSec <= 0 || stepSec <= 0 {
		return SessionResult{}, fmt.Errorf("meetup: bad session bounds duration=%v step=%v", durationSec, stepSec)
	}
	res := SessionResult{Policy: policy, StartSec: t0, DurationSec: durationSec}

	sel := func(t float64) (Candidate, error) {
		if policy == Sticky {
			return oracleSelectSticky(p, prov, t)
		}
		return p.SelectMinMax(prov.At(t))
	}

	cur, err := sel(t0)
	if err != nil {
		return SessionResult{}, fmt.Errorf("meetup: initial selection: %w", err)
	}
	heldSince := t0
	res.RTT.Add(cur.GroupRTTMs)

	for t := t0 + stepSec; t <= t0+durationSec; t += stepSec {
		snap := prov.At(t)
		rtt, visible := p.groupRTT(cur.SatID, snap[cur.SatID])

		needSwitch := false
		var next Candidate
		switch policy {
		case MinMax:
			mm, err := p.SelectMinMax(snap)
			if err != nil {
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
				st, err := oracleSelectSticky(p, prov, t)
				if err != nil {
					continue
				}
				needSwitch, next = true, st
			}
		default:
			return SessionResult{}, fmt.Errorf("meetup: unknown policy %v", policy)
		}

		if needSwitch {
			snap = prov.At(t)
			transfer, terr := p.TransferLatencyMs(snap, cur.SatID, next.SatID)
			if terr != nil {
				transfer = 0
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
