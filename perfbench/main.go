// Command perfbench is the repository benchmark. It runs one workload per
// invocation, each repetition in a fresh child process, checks that every
// repetition's simulated outputs are correct, and prints one JSON result
// line with the end-to-end metrics (or, with --trace 1, the per-layer
// metrics). Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload fleet-100k --seed 3 --seconds 30 --trace 0
//
// A fresh process per repetition is required: the experiments package pools
// ephemeris engines process-wide and netgraph.TotalStats never resets, so a
// second repetition in one process would measure warm caches.
//
// NOTES.md records why each workload exists and which end-to-end metric
// each per-layer metric is predicted to move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlPaper = "paper-figures"
	wlFleet = "fleet-100k"
	wlServe = "serve-contended"
)

var workloads = []string{wlPaper, wlFleet, wlServe}

// Child modes: a plain repetition measures the end-to-end metrics with
// tracing off; a traced one records spans and runs the calibration probes
// after its timed phase; obsOn repeats the plain run with an obs.Registry
// attached (serve-contended only), which gives obs.overhead_pct.
const (
	modePlain  = "plain"
	modeTraced = "traced"
	modeObsOn  = "obs"
)

// runLimit bounds one invocation; the contract allows 180 s.
const runLimit = 165 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 30, "measurement budget in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		child    = flag.Bool("child", false, "internal: run one repetition in this process")
		mode     = flag.String("mode", modePlain, "internal: child mode")
		size     = flag.String("size", sizeFull, "input size: full or smoke")
		record   = flag.Bool("record", false, "print the output digest of every input variant of the workload")
	)
	flag.Parse()
	if !slices.Contains(workloads, *workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloads, ", "))
		os.Exit(2)
	}
	if *size != sizeFull && *size != sizeSmoke {
		fmt.Fprintf(os.Stderr, "perfbench: unknown size %q\n", *size)
		os.Exit(2)
	}
	if *child {
		s, err := runChild(*workload, *seed, *size, *mode)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(s); err != nil {
			os.Exit(1)
		}
		return
	}
	if *record {
		if err := recordDigests(*workload, *size); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	res, err := runParent(*workload, *seed, *size, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spawn runs one repetition in a fresh process and decodes its sample.
func spawn(ctx context.Context, workload string, seed int64, size, mode string) (sample, error) {
	self, err := os.Executable()
	if err != nil {
		return sample{}, err
	}
	cmd := exec.CommandContext(ctx, self, "-child", "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10), "-size", size, "-mode", mode)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return sample{}, fmt.Errorf("%s repetition (%s): %w", workload, mode, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var s sample
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		return sample{}, fmt.Errorf("%s repetition (%s): decode sample: %w", workload, mode, err)
	}
	return s, nil
}

// minPlain is the fewest plain repetitions a run reports a median over:
// two for an end-to-end run, so no reported value rests on one process
// (paper-figures' Fig 6/7 work varies run to run with how the two sweep
// workers share the ephemeris cache), and one for a traced run, whose
// round already holds a plain and a traced repetition.
func minPlain(traced bool) int {
	if traced {
		return 1
	}
	return 2
}

// runParent repeats rounds of child processes until the measurement budget
// is spent and minPlain is met, then aggregates medians. A plain run's
// round is one plain repetition; a traced run's round is a plain and a
// traced repetition (plus an obs-on one on serve-contended), so the trace
// overhead compares runs of one invocation.
func runParent(workload string, seed int64, size string, seconds float64, traced bool) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	modes := []string{modePlain}
	if traced {
		modes = append(modes, modeTraced)
		if workload == wlServe {
			modes = append(modes, modeObsOn)
		}
	}
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	byMode := map[string][]sample{}
	var longest time.Duration
	for {
		rs := time.Now()
		for _, m := range modes {
			s, err := spawn(ctx, workload, seed, size, m)
			if err != nil {
				return result{}, err
			}
			byMode[m] = append(byMode[m], s)
			fmt.Fprintf(os.Stderr, "perfbench: %s %s repetition: setup %.4gs, wall %.4gs, cpu %.4gs, peak RSS %.4g MB, %.4g propagations\n",
				workload, m, s.Values["setup_s"], s.Values["wall_s"], s.Values["cpu_s"], s.Values["peak_rss_mb"], s.Values["ephem.propagations"])
		}
		if d := time.Since(rs); d > longest {
			longest = d
		}
		if len(byMode[modePlain]) >= minPlain(traced) && time.Since(start)+longest > budget {
			break
		}
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	var all []sample
	for _, m := range modes {
		all = append(all, byMode[m]...)
	}
	for _, s := range all {
		res.Attempted++
		if len(s.Failures) > 0 {
			res.Failed++
			res.Correct = false
			for _, f := range s.Failures {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d (%s): check failed: %s\n", workload, seed, s.Mode, f)
			}
		}
	}
	plain := byMode[modePlain]
	if !traced {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{Value: median(collect(plain, d.name)), Unit: d.unit}
		}
	} else {
		layer := layerMetrics(byMode)
		for _, d := range perLayer {
			v, ok := layer[d.name]
			if !ok {
				return result{}, fmt.Errorf("per-layer metric %s not computed", d.name)
			}
			res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		}
	}
	printTable(os.Stderr, workload, seed, len(plain), res)
	return res, nil
}

// collect gathers one raw value from every sample.
func collect(ss []sample, name string) []float64 {
	var out []float64
	for _, s := range ss {
		out = append(out, s.Values[name])
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func printTable(w io.Writer, workload string, seed int64, reps int, res result) {
	fmt.Fprintf(w, "perfbench %s seed %d: %d plain repetition(s), %d checked, %d failed\n",
		workload, seed, reps, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// recordDigests prints the digest of every input variant of a workload,
// one repetition each, in the layout digests.json stores.
func recordDigests(workload, size string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Minute)
	defer cancel()
	out := map[string]string{}
	for v := 0; v < variants(workload); v++ {
		s, err := spawn(ctx, workload, int64(v), size, modePlain)
		if err != nil {
			return err
		}
		for _, f := range s.Failures {
			if !strings.HasPrefix(f, "digest") {
				return errors.New(f)
			}
		}
		out[strconv.Itoa(v)] = s.Digest
	}
	b, err := json.MarshalIndent(map[string]map[string]map[string]string{workload: {size: out}}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
