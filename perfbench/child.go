package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/geo"
	"repro/internal/netgraph"
)

// Input sizes: full is what the benchmark measures; smoke is the self-test
// size with its own recorded digests.
const (
	sizeFull  = "full"
	sizeSmoke = "smoke"
)

// sample is one repetition's raw measurements, printed by the child as a
// JSON line and folded into medians by the parent.
type sample struct {
	Workload string             `json:"workload"`
	Mode     string             `json:"mode"`
	Variant  int                `json:"variant"`
	Digest   string             `json:"digest"`
	Failures []string           `json:"failures,omitempty"`
	Values   map[string]float64 `json:"values"`
	EpochMs  []float64          `json:"epoch_ms,omitempty"`
}

// run is one workload instance inside a child process.
type run interface {
	// setup builds the inputs and engines and returns its duration in
	// seconds (a median when the workload repeats it).
	setup(tr *tracer) (float64, error)
	// timed runs the measured phase.
	timed(tr *tracer) error
	// check returns every failed invariant of the outputs.
	check() []string
	// digest hashes the deterministic outputs.
	digest() string
	// layer records the workload's per-layer raw values.
	layer(vals map[string]float64, tr *tracer, wall float64)
	// probe describes the network shape the calibration probes mimic.
	probe() probeShape
}

func newRun(workload string, variant int, size, mode string) run {
	switch workload {
	case wlPaper:
		return &paperRun{size: size}
	case wlFleet:
		return &fleetRun{size: size, variant: variant}
	default:
		return &serveRun{size: size, variant: variant, obsOn: mode == modeObsOn}
	}
}

// variants is how many distinct input sets a workload has. The seed picks
// one (seed mod variants), so every seed's outputs have a recorded digest.
// paper-figures has one: its outputs are compared with the committed
// results/*.csv, which fix its inputs.
func variants(workload string) int {
	if workload == wlPaper {
		return 1
	}
	return 8
}

func variantOf(workload string, seed int64) int {
	n := int64(variants(workload))
	return int(((seed % n) + n) % n)
}

//go:embed digests.json
var digestsJSON []byte

// recordedDigest returns the digest recorded for a workload input.
func recordedDigest(workload, size string, variant int) (string, bool) {
	var all map[string]map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return "", false
	}
	d, ok := all[workload][size][strconv.Itoa(variant)]
	return d, ok
}

// digestFailures compares an output digest with the recorded one.
func digestFailures(workload, size string, variant int, got string) []string {
	want, ok := recordedDigest(workload, size, variant)
	if !ok {
		return []string{fmt.Sprintf("digest: none recorded for %s/%s variant %d (got %s)", workload, size, variant, got)}
	}
	if want != got {
		return []string{fmt.Sprintf("digest: got %s, recorded %s", got, want)}
	}
	return nil
}

// runChild runs one repetition: setup, the timed phase, output checks and,
// when traced, the calibration probes and the span file.
func runChild(workload string, seed int64, size, mode string) (sample, error) {
	v := variantOf(workload, seed)
	s := sample{Workload: workload, Mode: mode, Variant: v, Values: map[string]float64{}}
	var tr *tracer
	if mode == modeTraced {
		tr = newTracer()
	}
	r := newRun(workload, v, size, mode)

	setup, err := r.setup(tr)
	if err != nil {
		return s, fmt.Errorf("setup: %w", err)
	}
	s.Values["setup_s"] = setup

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	tr.markTimed()
	if err := r.timed(tr); err != nil {
		return s, fmt.Errorf("timed phase: %w", err)
	}
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	s.Values["wall_s"] = wall
	s.Values["cpu_s"] = cpu
	s.Values["peak_rss_mb"] = peakRSSMB()
	s.Values["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	s.Values["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	s.Values["runtime.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)

	s.Failures = r.check()
	s.Digest = r.digest()
	s.Failures = append(s.Failures, digestFailures(workload, size, v, s.Digest)...)

	// Counters are read before the probes, which add their own queries.
	ng := netgraph.TotalStats()
	s.Values["netgraph.sssp_queries"] = float64(ng.SSSPQueries)
	s.Values["netgraph.path_queries"] = float64(ng.PathQueries)
	s.Values["netgraph.isl_queries"] = float64(ng.ISLQueries)
	s.Values["netgraph.freezes"] = float64(ng.Freezes)
	if ng.Freezes > 0 {
		s.Values["netgraph.delta_freeze_ratio"] = float64(ng.DeltaFreezes) / float64(ng.Freezes)
	}
	r.layer(s.Values, tr, wall)
	if f, ok := r.(*fleetRun); ok {
		s.EpochMs = f.epochMs
	}

	if tr != nil {
		s.Values["unattributed_s"] = wall - tr.timedTopLevel()
		c, err := calibrate(r.probe())
		if err != nil {
			return s, fmt.Errorf("calibration: %w", err)
		}
		attribute(s.Values, c, ng)
		if err := tr.write(workload, seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: trace not written: %v\n", err)
		}
	}
	return s, nil
}

// attribute fills the calibrated unit costs and the computed layer
// estimates from the workload's counters.
func attribute(vals map[string]float64, c calib, ng netgraph.Stats) {
	vals["ephem.ns_per_sat"] = c.nsPerSat
	vals["ephem.est_s"] = vals["ephem.propagations"] * c.nsPerSat / 1e9
	vals["netgraph.sssp_us"] = c.ssspUs
	vals["netgraph.freeze_ms"] = c.freezeMs
	vals["netgraph.delta_freeze_ms"] = c.deltaFreezeMs
	full := float64(ng.Freezes - ng.DeltaFreezes)
	vals["netgraph.est_s"] = float64(ng.SSSPQueries)*c.ssspUs/1e6 +
		full*c.freezeMs/1e3 + float64(ng.DeltaFreezes)*c.deltaFreezeMs/1e3
	if step := vals["fleet.step_s"]; step > 0 {
		vals["fleet.self_est_s"] = step - vals["netgraph.est_s"] - vals["ephem.est_s"]
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSec(ru.Utime) + tvSec(ru.Stime)
}

func tvSec(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// peakRSSMB is the process's maximum resident set so far (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// tracer keeps spans in memory around the benchmark's calls into each
// layer and writes them out when the repetition ends. A nil tracer records
// nothing.
type tracer struct {
	origin time.Time
	timed  float64 // offset where the timed phase starts
	spans  []span
	open   []int
}

type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"` // index of the enclosing span, -1 at top level
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.origin).Seconds() }

func (t *tracer) markTimed() {
	if t != nil {
		t.timed = t.now()
	}
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil || len(t.open) == 0 {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = t.now()
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) float64 {
	if t == nil {
		return 0
	}
	sum := 0.0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
		}
	}
	return sum
}

// timedTopLevel sums the top-level spans inside the timed phase: the wall
// time the benchmark attributes to a layer call.
func (t *tracer) timedTopLevel() float64 {
	sum := 0.0
	for _, s := range t.spans {
		if s.Parent < 0 && s.Start >= t.timed {
			sum += s.End - s.Start
		}
	}
	return sum
}

// write stores the spans under .bench_build/traces in the working
// directory, with each span's self time (its duration minus its children's).
func (t *tracer) write(workload string, seed int64) error {
	type out struct {
		span
		SelfS float64 `json:"self_s"`
	}
	rows := make([]out, len(t.spans))
	for i, s := range t.spans {
		rows[i] = out{span: s, SelfS: s.End - s.Start}
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			rows[s.Parent].SelfS -= s.End - s.Start
		}
	}
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-pid%d.json", workload, seed, os.Getpid())
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// digester hashes deterministic outputs; floats are written in hex so the
// digest pins every bit.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) add(label string, vs ...any) {
	fmt.Fprint(d.h, label)
	for _, v := range vs {
		switch x := v.(type) {
		case float64:
			fmt.Fprint(d.h, " ", strconv.FormatFloat(x, 'x', -1, 64))
		default:
			fmt.Fprint(d.h, " ", x)
		}
	}
	fmt.Fprintln(d.h)
}

func (d *digester) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }

// probeShape is the network a workload's calibration probes mimic: its
// ground sites and its snapshot cadence.
type probeShape struct {
	grounds []geo.LatLon
	stepSec float64
}

// finite guards ratios that have an empty denominator.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
