package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cities"
	"repro/internal/constellation"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/plot"
)

// paperCSVs are the committed figure outputs paper-figures reproduces, in
// the order it writes them.
var paperCSVs = []string{
	"fig1_rtt_vs_latitude.csv",
	"fig2_reachable_vs_latitude.csv",
	"fig4_invisible_vs_cities.csv",
	"fig5_invisible_positions.csv",
	"fig6_handoff_interval_cdf.csv",
	"fig7_transfer_latency_cdf.csv",
}

// paperSetupReps is how often the cheap paper-figures setup repeats; the
// median is reported.
const paperSetupReps = 51

// paperRun regenerates Figs 1, 2, 4, 5 and 6/7 through the experiments
// package, rendering each CSV exactly as cmd/figures does.
type paperRun struct {
	size  string
	ref   map[string][]byte
	got   map[string][]byte
	fig67 experiments.Fig67Result
}

// setup builds the two constellations the figures sweep (the experiments
// package builds its own pooled copies inside the timed phase; this times
// the same build) and, at full size, loads the committed CSVs.
func (p *paperRun) setup(tr *tracer) (float64, error) {
	var ds []float64
	for i := 0; i < paperSetupReps; i++ {
		t0 := time.Now()
		tr.begin("setup.constellations")
		if _, err := constellation.StarlinkPhase1(constellation.Config{}); err != nil {
			return 0, err
		}
		if _, err := constellation.Kuiper(constellation.Config{}); err != nil {
			return 0, err
		}
		tr.end()
		if p.size == sizeFull {
			p.ref = map[string][]byte{}
			for _, name := range paperCSVs {
				b, err := os.ReadFile(filepath.Join("results", name))
				if err != nil {
					return 0, fmt.Errorf("committed figure output: %w", err)
				}
				p.ref[name] = b
			}
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

func (p *paperRun) configs() (experiments.LatitudeSweepConfig, experiments.Fig67Config) {
	if p.size == sizeSmoke {
		return experiments.LatitudeSweepConfig{LatStepDeg: 3, SampleEverySec: 300, DurationSec: 3600},
			experiments.Fig67Config{Groups: 4, DurationSec: 1200, StepSec: 5}
	}
	return experiments.LatitudeSweepConfig{}, experiments.Fig67Config{}
}

func (p *paperRun) timed(tr *tracer) error {
	sweep, f67 := p.configs()
	p.got = map[string][]byte{}

	tr.begin("experiments.Fig1")
	r1, err := experiments.Fig1(sweep)
	tr.end()
	if err != nil {
		return err
	}
	var s1 []plot.Series
	for _, r := range r1 {
		lo, hi := r.Series()
		s1 = append(s1, lo, hi)
	}
	if err := p.render(paperCSVs[0], true, s1...); err != nil {
		return err
	}

	tr.begin("experiments.Fig2")
	r2, err := experiments.Fig2(sweep)
	tr.end()
	if err != nil {
		return err
	}
	var s2 []plot.Series
	for _, r := range r2 {
		avg, lo, hi := r.Series()
		s2 = append(s2, avg, lo, hi)
	}
	if err := p.render(paperCSVs[1], true, s2...); err != nil {
		return err
	}

	tr.begin("experiments.Fig4")
	r4, err := experiments.Fig4(experiments.Fig4Config{})
	tr.end()
	if err != nil {
		return err
	}
	var s4 []plot.Series
	for _, r := range r4 {
		s4 = append(s4, r.Series())
	}
	if err := p.render(paperCSVs[2], true, s4...); err != nil {
		return err
	}

	tr.begin("experiments.Fig5")
	r5, err := experiments.Fig5(experiments.ConstellationSet{Starlink: true}, 1000, 0)
	tr.end()
	if err != nil {
		return err
	}
	var lats, lons []float64
	for _, s := range r5[0].InvisibleSats {
		lats = append(lats, s.LatDeg)
		lons = append(lons, s.LonDeg)
	}
	if err := p.render(paperCSVs[3], false, plot.Series{Name: "lat", X: lons, Y: lats}); err != nil {
		return err
	}

	tr.begin("experiments.Fig67")
	p.fig67, err = experiments.Fig67(f67)
	tr.end()
	if err != nil {
		return err
	}
	mm6, st6 := p.fig67.Fig6Series()
	if err := p.render(paperCSVs[4], true, mm6, st6); err != nil {
		return err
	}
	mm7, st7 := p.fig67.Fig7Series()
	return p.render(paperCSVs[5], true, mm7, st7)
}

func (p *paperRun) render(name string, ragged bool, series ...plot.Series) error {
	var b bytes.Buffer
	var err error
	if ragged {
		err = plot.WriteCSVRagged(&b, series...)
	} else {
		err = plot.WriteCSV(&b, series...)
	}
	p.got[name] = b.Bytes()
	return err
}

func (p *paperRun) check() []string {
	var fails []string
	if p.fig67.GroupsSimulated == 0 || p.fig67.HandoffsMinMax <= p.fig67.HandoffsSticky {
		fails = append(fails, fmt.Sprintf("fig67: want Sticky to hand off less than MinMax, got %d vs %d over %d groups",
			p.fig67.HandoffsSticky, p.fig67.HandoffsMinMax, p.fig67.GroupsSimulated))
	}
	if p.size != sizeFull {
		return fails
	}
	for _, name := range paperCSVs {
		if !bytes.Equal(p.got[name], p.ref[name]) {
			fails = append(fails, fmt.Sprintf("%s differs from results/%s", name, name))
		}
	}
	return fails
}

func (p *paperRun) digest() string {
	d := newDigester()
	for _, name := range paperCSVs {
		d.add(name, fmt.Sprintf("%x", sha256.Sum256(p.got[name])))
	}
	r := p.fig67
	d.add("fig67", r.GroupsSimulated, r.HandoffsMinMax, r.HandoffsSticky, r.MeanRTTMinMax, r.MeanRTTSticky)
	return d.sum()
}

func (p *paperRun) layer(vals map[string]float64, tr *tracer, wall float64) {
	es := experiments.EphemStats()
	vals["ephem.propagations"] = float64(es.PropagatedSats)
	vals["ephem.hit_ratio"] = finite(float64(es.Hits) / float64(es.Hits+es.Misses))
	vals["experiments.fig12_s"] = tr.total("experiments.Fig1") + tr.total("experiments.Fig2")
	vals["experiments.fig45_s"] = tr.total("experiments.Fig4") + tr.total("experiments.Fig5")
	vals["experiments.fig67_s"] = tr.total("experiments.Fig67")
	vals["meetup.handoffs_minmax"] = float64(p.fig67.HandoffsMinMax)
	vals["meetup.handoffs_sticky"] = float64(p.fig67.HandoffsSticky)
}

// probe: the figure sweeps freeze no ground networks of their own; the
// probes use the serve sites at the Fig 6/7 step as a stand-in.
func (p *paperRun) probe() probeShape {
	var gs []geo.LatLon
	for _, c := range cities.TopN(12) {
		gs = append(gs, c.Loc)
	}
	return probeShape{grounds: gs, stepSec: 2}
}
