package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/fleet"
	"repro/internal/serve"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the benchmark defines.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i])
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: BENCHMARK.json has %d, benchmark reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end %d: BENCHMARK.json %s/%s/%s, benchmark %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer: BENCHMARK.json has %d, benchmark reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json %s/%s/%s, benchmark %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
}

// produced lists, per workload, the named metrics its layers must yield
// (non-zero) in a traced smoke run.
var produced = map[string][]string{
	wlPaper: {
		"ephem.propagations", "ephem.hit_ratio", "ephem.ns_per_sat", "ephem.est_s",
		"netgraph.isl_queries",
		"experiments.fig12_s", "experiments.fig45_s", "experiments.fig67_s",
		"meetup.handoffs_minmax", "meetup.handoffs_sticky",
	},
	wlFleet: {
		"ephem.propagations", "ephem.est_s",
		"netgraph.sssp_queries", "netgraph.freezes", "netgraph.sssp_us", "netgraph.est_s",
		"fleet.start_s", "fleet.step_s", "fleet.session_epochs_per_s",
		"fleet.epoch_ms_p50", "fleet.epoch_ms_tail", "fleet.epoch_samples",
		"fleet.replan_us_p50", "fleet.replan_us_p99", "fleet.shard_imbalance",
		"fleet.handoffs", "fleet.placements",
	},
	wlServe: {
		"ephem.propagations", "netgraph.freezes", "netgraph.delta_freeze_ratio",
		"netgraph.freeze_ms", "netgraph.delta_freeze_ms", "netgraph.est_s",
		"serve.sim_req_per_s", "serve.nearest.run_s", "serve.least_loaded.run_s", "serve.sticky.run_s",
		"serve.new_engine_s", "serve.feed_s", "serve.result_s",
		"serve.parallel_slices", "serve.serial_slices",
		"serve.nearest.p99_ms", "serve.least_loaded.p99_ms", "serve.sticky.p99_ms",
		"serve.nearest.shed_pct", "serve.sticky.shed_pct",
	},
}

// TestSmoke runs each workload at smoke size, traced, and fails on a
// digest mismatch, a broken invariant or a named metric the workload did
// not produce. The workloads share this process, so cumulative netgraph
// counters are not meaningful here; their presence is.
func TestSmoke(t *testing.T) {
	// Trace files land in a temporary directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			s, err := runChild(w, 1, sizeSmoke, modeTraced)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range s.Failures {
				t.Errorf("check failed: %s", f)
			}
			for _, d := range endToEnd {
				if s.Values[d.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, s.Values[d.name])
				}
			}
			layer := layerMetrics(map[string][]sample{modePlain: {s}, modeTraced: {s}})
			for _, d := range perLayer {
				if _, ok := layer[d.name]; !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
			for _, name := range produced[w] {
				if layer[name] <= 0 {
					t.Errorf("%s = %v, want > 0 on %s", name, layer[name], w)
				}
			}
		})
	}
}

func TestDigestMismatchFails(t *testing.T) {
	want, ok := recordedDigest(wlServe, sizeSmoke, 1)
	if !ok {
		t.Fatal("no smoke digest recorded for serve-contended")
	}
	if f := digestFailures(wlServe, sizeSmoke, 1, want); len(f) != 0 {
		t.Fatalf("recorded digest rejected: %v", f)
	}
	if f := digestFailures(wlServe, sizeSmoke, 1, "0"+want[1:]); len(f) == 0 {
		t.Fatal("altered digest accepted")
	}
	if f := digestFailures(wlServe, sizeSmoke, 99, want); len(f) == 0 {
		t.Fatal("unrecorded variant accepted")
	}
}

func TestBrokenInvariantsFail(t *testing.T) {
	reqs := make([]serve.Request, 10)
	sv := &serveRun{reqs: reqs}
	for _, p := range serve.Policies() {
		sv.results = append(sv.results, serve.Result{Policy: p.Name(), Offered: 10, Served: 10})
	}
	if f := sv.check(); len(f) != 0 {
		t.Fatalf("conserving results rejected: %v", f)
	}
	sv.results[1].Served = 9 // one request vanishes
	if f := sv.check(); len(f) == 0 {
		t.Fatal("serve: lost request accepted")
	}

	if f := epochFailures(0, fleet.EpochReport{Sessions: 2, Assigned: 2}, []float64{0.5, 1}); len(f) != 0 {
		t.Fatalf("valid epoch rejected: %v", f)
	}
	if f := epochFailures(0, fleet.EpochReport{Sessions: 2, Assigned: 3}, nil); len(f) == 0 {
		t.Fatal("fleet: over-assignment accepted")
	}
	if f := epochFailures(0, fleet.EpochReport{Sessions: 2, Assigned: 2}, []float64{1.5}); len(f) == 0 {
		t.Fatal("fleet: over-capacity satellite accepted")
	}

	pap := &paperRun{size: sizeFull, ref: map[string][]byte{}, got: map[string][]byte{}}
	pap.fig67.GroupsSimulated, pap.fig67.HandoffsMinMax, pap.fig67.HandoffsSticky = 1, 2, 1
	for _, name := range paperCSVs {
		pap.ref[name] = []byte("x,y\n1,2\n")
		pap.got[name] = []byte("x,y\n1,2\n")
	}
	if f := pap.check(); len(f) != 0 {
		t.Fatalf("identical CSVs rejected: %v", f)
	}
	pap.got[paperCSVs[4]] = []byte("x,y\n1,3\n")
	if f := pap.check(); len(f) != 1 {
		t.Fatalf("changed fig6 CSV: got failures %v, want one", f)
	}
}

func TestEpochTail(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p50, tail, pct := epochPercentiles(xs)
	// Nearest rank: 10 samples (31..40) lie beyond the tail value 30.
	if p50 != 20.5 || tail != 30 || pct != 75 {
		t.Fatalf("got p50 %v tail %v at p%v, want 20.5, 30 at p75", p50, tail, pct)
	}
	if _, tail, pct := epochPercentiles(xs[:5]); tail != 5 || pct != 100 {
		t.Fatalf("few samples: got tail %v at p%v, want the maximum", tail, pct)
	}
}
