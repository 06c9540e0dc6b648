package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/constellation"
	"repro/internal/ephem"
	"repro/internal/geo"
	"repro/internal/netgraph"
	"repro/internal/obs"
)

// calib holds unit costs measured from outside the layers, on an otherwise
// idle process, after the timed phase.
type calib struct {
	nsPerSat      float64 // one satellite propagation (SnapshotInto at uncached times)
	ssspUs        float64 // one LatencyToAllNodesInto on a groundless Starlink network
	freezeMs      float64 // one At().Freeze() full freeze
	deltaFreezeMs float64 // one chained AtAfter freeze
}

// probeReps is how many timed batches each probe takes; the median batch
// sets the unit cost.
const probeReps = 7

func calibrate(shape probeShape) (calib, error) {
	runtime.GC() // collect the timed phase's garbage before timing anything
	c, err := constellation.StarlinkPhase1(constellation.Config{})
	if err != nil {
		return calib{}, err
	}
	reg := obs.NewRegistry() // keep probe metrics out of the default registry
	var out calib

	// Ephemeris: SnapshotInto with both cache tiers off always propagates.
	eng := ephem.New(c, ephem.Config{CacheFrames: -1, GridFrames: -1, Registry: reg})
	dst := make([]geo.Vec3, c.Size())
	const frames = 100
	t := 1000.25
	out.nsPerSat = medianBatch(func() error {
		for i := 0; i < frames; i++ {
			t += 7.3
			if err := eng.SnapshotInto(t, dst); err != nil {
				return err
			}
		}
		return nil
	}) * 1e9 / float64(frames*c.Size())
	if out.nsPerSat <= 0 {
		return calib{}, fmt.Errorf("ephemeris probe failed")
	}

	// SSSP over the groundless ISL graph the fleet prices transfers on.
	ng := netgraph.New(c, nil).UseObs(reg)
	snap := ng.At(1234.5)
	snap.Freeze()
	lat := make([]float64, ng.Nodes())
	const sources = 40
	src := 0
	out.ssspUs = medianBatch(func() error {
		for i := 0; i < sources; i++ {
			src = (src + 97) % ng.Sats()
			lat = snap.LatencyToAllNodesInto(ng.SatNode(src), lat)
		}
		return nil
	}) * 1e6 / sources

	// Freezes on the workload's own network shape: a full freeze per
	// fresh snapshot, and delta freezes along an AtAfter chain.
	fn := netgraph.New(c, shape.grounds).UseObs(reg)
	const freezes = 8
	ft := 50.0
	out.freezeMs = medianBatchPrepared(func() []*netgraph.Snapshot {
		ss := make([]*netgraph.Snapshot, freezes)
		for i := range ss {
			ft += shape.stepSec
			ss[i] = fn.At(ft)
		}
		return ss
	}) * 1e3 / freezes

	dn := netgraph.New(c, shape.grounds).UseObs(reg)
	prev := dn.At(5000)
	prev.Freeze()
	dt := 5000.0
	out.deltaFreezeMs = medianBatchPrepared(func() []*netgraph.Snapshot {
		ss := make([]*netgraph.Snapshot, freezes)
		for i := range ss {
			dt += shape.stepSec
			ss[i] = dn.AtAfter(prev, dt)
			prev = ss[i]
		}
		return ss
	}) * 1e3 / freezes
	return out, nil
}

// medianBatch times probeReps calls of f (after one warm-up call) and
// returns the median in seconds.
func medianBatch(f func() error) float64 {
	if err := f(); err != nil {
		return 0
	}
	ds := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds)
}

// medianBatchPrepared builds snapshots untimed, then times freezing them in
// order; returns the median batch time in seconds.
func medianBatchPrepared(prepare func() []*netgraph.Snapshot) float64 {
	ds := make([]float64, 0, probeReps)
	for i := 0; i <= probeReps; i++ {
		ss := prepare()
		t0 := time.Now()
		for _, s := range ss {
			s.Freeze()
		}
		if i > 0 { // the first batch warms up
			ds = append(ds, time.Since(t0).Seconds())
		}
	}
	return median(ds)
}
