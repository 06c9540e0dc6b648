package obs

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exactQuantile is the sorted-sample reference the sketch is judged against.
func exactQuantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// checkAccuracy feeds samples into a sketch and requires every exported
// quantile to land within the documented relative error (sqrt(gamma)-1 ≈ 1%
// per bucket boundary; 2.5% leaves margin for rank granularity).
func checkAccuracy(t *testing.T, name string, samples []float64) {
	t.Helper()
	q := &Quantile{}
	for _, v := range samples {
		q.Observe(v)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99} {
		got := q.Quantile(p)
		want := exactQuantile(sorted, p)
		if want == 0 {
			continue
		}
		if rel := math.Abs(got-want) / math.Abs(want); rel > 0.025 {
			t.Errorf("%s p%g: got %g, exact %g (rel err %.3f > 0.025)", name, 100*p, got, want, rel)
		}
	}
	if q.Count() != uint64(len(samples)) {
		t.Errorf("%s count = %d, want %d", name, q.Count(), len(samples))
	}
}

func TestQuantileAccuracyUniform(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	samples := make([]float64, 50000)
	for i := range samples {
		samples[i] = 1 + 99*r.Float64() // uniform on [1, 100)
	}
	checkAccuracy(t, "uniform", samples)
}

func TestQuantileAccuracyExponential(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	samples := make([]float64, 50000)
	for i := range samples {
		samples[i] = r.ExpFloat64() * 10 // heavy right tail
	}
	checkAccuracy(t, "exponential", samples)
}

func TestQuantileAccuracyBimodal(t *testing.T) {
	// Fast path vs slow path: two well-separated modes, the shape where
	// fixed histogram buckets lose the p99 entirely.
	r := rand.New(rand.NewSource(3))
	samples := make([]float64, 50000)
	for i := range samples {
		if r.Float64() < 0.9 {
			samples[i] = 0.5 + 0.1*r.Float64()
		} else {
			samples[i] = 200 + 50*r.Float64()
		}
	}
	checkAccuracy(t, "bimodal", samples)
}

func TestQuantileEdgeCases(t *testing.T) {
	q := &Quantile{}
	if got := q.Quantile(0.5); got != 0 {
		t.Errorf("empty sketch p50 = %g, want 0", got)
	}
	q.Observe(42)
	for _, p := range []float64{0, 0.5, 1} {
		if got := q.Quantile(p); got != 42 {
			t.Errorf("single-sample p%g = %g, want 42 (clamped to [min,max])", 100*p, got)
		}
	}
	q.Observe(-5) // non-positive lands in the underflow bucket
	q.Observe(0)
	if q.Count() != 3 {
		t.Errorf("count = %d, want 3", q.Count())
	}
	if got := q.Min(); got != -5 {
		t.Errorf("min = %g, want -5", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Quantile(1.5) did not panic")
		}
	}()
	q.Quantile(1.5)
}

func TestQuantileConcurrent(t *testing.T) {
	q := &Quantile{}
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				q.Observe(1 + r.Float64())
			}
		}(int64(w))
	}
	wg.Wait()
	if q.Count() != workers*per {
		t.Errorf("count = %d, want %d", q.Count(), workers*per)
	}
	if p50 := q.Quantile(0.5); p50 < 1 || p50 > 2 {
		t.Errorf("p50 = %g outside observed [1,2]", p50)
	}
}

// TestQuantileFirstObservationRace starts many goroutines on a fresh
// sketch at once, each observing one distinct value. Min and Max must be
// exact however the first observations interleave.
func TestQuantileFirstObservationRace(t *testing.T) {
	const trials, workers = 5000, 8
	for trial := 0; trial < trials; trial++ {
		q := &Quantile{}
		var start, wg sync.WaitGroup
		start.Add(1)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(v float64) {
				defer wg.Done()
				start.Wait()
				q.Observe(v)
			}(float64(10 + w))
		}
		start.Done()
		wg.Wait()
		if lo, hi := q.Min(), q.Max(); lo != 10 || hi != 10+workers-1 {
			t.Fatalf("trial %d: min/max = %g/%g, want 10/%d", trial, lo, hi, 10+workers-1)
		}
	}
}

func TestQuantileNegativeZero(t *testing.T) {
	q := &Quantile{}
	q.Observe(math.Copysign(0, -1))
	if q.Count() != 1 || q.Min() != 0 || q.Max() != 0 {
		t.Fatalf("count/min/max = %d/%g/%g, want 1/0/0", q.Count(), q.Min(), q.Max())
	}
	q.Observe(-1)
	if q.Min() != -1 || q.Max() != 0 {
		t.Fatalf("min/max = %g/%g, want -1/0", q.Min(), q.Max())
	}
}

func TestQuantileVec(t *testing.T) {
	reg := NewRegistry()
	vec := reg.QuantileVec("rpc_ms", "per-method latency", "method")
	vec.With("get").Observe(1)
	vec.With("put").Observe(100)
	if same := vec.With("get"); same != vec.With("get") {
		t.Error("With not cached per label value")
	}
	snap := reg.Snapshot()
	var fam *FamilySnapshot
	for i := range snap {
		if snap[i].Name == "rpc_ms" {
			fam = &snap[i]
		}
	}
	if fam == nil || fam.Kind != KindQuantile || len(fam.Samples) != 2 {
		t.Fatalf("bad family: %+v", fam)
	}
	for _, s := range fam.Samples {
		if len(s.Quantiles) != len(ExportQuantiles) {
			t.Errorf("sample %v: %d quantile points, want %d", s.Labels, len(s.Quantiles), len(ExportQuantiles))
		}
	}
}

func TestQuantilePrometheusSummary(t *testing.T) {
	reg := NewRegistry()
	q := reg.Quantile("req_ms", "request latency")
	for i := 1; i <= 100; i++ {
		q.Observe(float64(i))
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE req_ms summary",
		`req_ms{quantile="0.5"}`,
		`req_ms{quantile="0.99"}`,
		"req_ms_sum 5050",
		"req_ms_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}
