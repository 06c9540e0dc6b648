package ephem

import (
	"math"
	"sync"
	"testing"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/obs"
)

// testConst builds a mid-size single-shell constellation: big enough
// (576 sats) to engage the parallel propagation path under Workers > 1.
func testConst(t testing.TB) *constellation.Constellation {
	t.Helper()
	c, err := constellation.Build("ephem-test", []constellation.Shell{{
		Name: "shell-550", AltitudeKm: 550, InclinationDeg: 53,
		Planes: 24, SatsPerPlane: 24, PhaseFactor: 11, MinElevationDeg: 25,
	}}, constellation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	return New(testConst(t), cfg)
}

// TestDifferentialExact pins the engine — parallel propagation, cached and
// uncached, grid and off-grid — byte-for-byte against direct Prop.ECEFAt
// across a full orbital period. This is the guarantee that rewiring
// consumers onto the engine cannot change any published figure.
func TestDifferentialExact(t *testing.T) {
	c := testConst(t)
	eng := New(c, Config{Workers: 4, Registry: obs.NewRegistry()})
	period := c.Satellites[0].Prop.Elements().PeriodSec()
	want := make([]geo.Vec3, c.Size())
	into := make([]geo.Vec3, c.Size())
	for k := 0; k <= 97; k++ {
		// Mix of grid (multiples of 60) and ragged off-grid instants.
		tt := float64(k) / 97 * period
		for i, s := range c.Satellites {
			want[i] = s.Prop.ECEFAt(tt)
		}
		got := eng.SnapshotAt(tt)
		again := eng.SnapshotAt(tt) // cached path
		if err := eng.SnapshotInto(tt, into); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if want[i] != got[i] || want[i] != again[i] || want[i] != into[i] {
				t.Fatalf("t=%g sat=%d: engine %v / %v / %v != direct %v", tt, i, got[i], again[i], into[i], want[i])
			}
		}
	}
}

func TestSnapshotSharingAndStats(t *testing.T) {
	eng := testEngine(t, Config{})
	a := eng.SnapshotAt(100)
	b := eng.SnapshotAt(100)
	if &a[0] != &b[0] {
		t.Fatal("same-time snapshots should share one backing array")
	}
	st := eng.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if st.PropagatedSats != uint64(eng.Size()) {
		t.Fatalf("propagated %d sats, want %d", st.PropagatedSats, eng.Size())
	}
}

func TestLRUEvictionBounded(t *testing.T) {
	eng := testEngine(t, Config{CacheFrames: 4, GridFrames: 4})
	for k := 0; k < 100; k++ {
		eng.SnapshotAt(float64(k) + 0.5) // off-grid → LRU tier
	}
	if st := eng.Stats(); st.Frames > 4 {
		t.Fatalf("LRU held %d frames, cap 4", st.Frames)
	}
	for k := 0; k < 100; k++ {
		eng.SnapshotAt(float64(k) * 60) // grid tier
	}
	if st := eng.Stats(); st.Frames > 8 {
		t.Fatalf("both tiers held %d frames, caps 4+4", st.Frames)
	}
}

// TestGridTierProtected is the point of the two-tier cache: a long
// off-grid sweep (the LRU-adversarial access pattern of session
// simulations) must not flush grid keyframes.
func TestGridTierProtected(t *testing.T) {
	eng := testEngine(t, Config{CacheFrames: 2, GridFrames: 8})
	kf := eng.SnapshotAt(60) // grid keyframe
	for k := 0; k < 50; k++ {
		eng.SnapshotAt(float64(k) + 0.25) // flood the LRU tier
	}
	before := eng.Stats()
	again := eng.SnapshotAt(60)
	after := eng.Stats()
	if after.Hits != before.Hits+1 {
		t.Fatal("grid keyframe was evicted by the off-grid sweep")
	}
	if &kf[0] != &again[0] {
		t.Fatal("grid keyframe re-propagated instead of shared")
	}
}

func TestSnapshotIntoLengthError(t *testing.T) {
	eng := testEngine(t, Config{})
	if err := eng.SnapshotInto(0, make([]geo.Vec3, 3)); err == nil {
		t.Fatal("want length-mismatch error")
	}
}

// TestConcurrent hammers all entry points from many goroutines over
// overlapping instants; run under -race in CI.
func TestConcurrent(t *testing.T) {
	eng := testEngine(t, Config{Workers: 2, CacheFrames: 8, GridFrames: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]geo.Vec3, eng.Size())
			for k := 0; k < 30; k++ {
				tt := float64((g*k)%7) * 30
				snap := eng.SnapshotAt(tt)
				if snap[0].Norm() < 6000 {
					t.Errorf("implausible radius %v", snap[0])
					return
				}
				if err := eng.SnapshotInto(tt+0.5, dst); err != nil {
					t.Error(err)
					return
				}
				if p := eng.PositionAt(k, tt); p != snap[k] {
					t.Errorf("PositionAt(%d, %g) = %v, frame has %v", k, tt, p, snap[k])
					return
				}
				eng.PositionsAt(tt+0.25, []int{g, k}, dst[:0])
			}
		}(g)
	}
	wg.Wait()
	// Every SnapshotInto and per-satellite read propagates; SnapshotAt
	// misses add whole frames on top.
	if st, floor := eng.Stats(), uint64(8*30*(eng.Size()+3)); st.PropagatedSats < floor {
		t.Fatalf("PropagatedSats = %d, want at least %d", st.PropagatedSats, floor)
	}
}

// TestGridIndex covers grid classification edge cases, including
// negative times.
func TestGridIndex(t *testing.T) {
	eng := testEngine(t, Config{})
	cases := []struct {
		t    float64
		idx  int64
		grid bool
	}{
		{0, 0, true}, {60, 1, true}, {-60, -1, true}, {120, 2, true},
		{30, 0, false}, {59.999, 0, false}, {-0.5, 0, false},
	}
	for _, c := range cases {
		idx, ok := eng.gridIndex(c.t)
		if ok != c.grid || (ok && idx != c.idx) {
			t.Fatalf("gridIndex(%g) = %d,%v want %d,%v", c.t, idx, ok, c.idx, c.grid)
		}
	}
}

// TestSnapshotNearGridExact pins frames at instants one ulp off the grid:
// with a grid step that is not a whole number of seconds, t/GridStepSec
// can round to an integer there, and such an instant must still get its
// own frame, not the neighbouring keyframe's.
func TestSnapshotNearGridExact(t *testing.T) {
	c := testConst(t)
	const step = 2.2222222222222223
	for _, keyFirst := range []bool{true, false} {
		eng := New(c, Config{GridStepSec: step, Registry: obs.NewRegistry()})
		for k := -900; k <= 900; k += 7 {
			key := float64(k) * step
			ts := []float64{key, math.Nextafter(key, math.Inf(-1)), math.Nextafter(key, math.Inf(1))}
			if !keyFirst {
				ts[0], ts[1] = ts[1], ts[0]
			}
			for _, tt := range ts {
				if got, want := eng.SnapshotAt(tt)[5], c.Satellites[5].Prop.ECEFAt(tt); !sameBits(got, want) {
					t.Fatalf("t=%v (keyframe %v): SnapshotAt %v != ECEFAt %v", tt, key, got, want)
				}
			}
		}
	}
}

func TestCacheDisabled(t *testing.T) {
	eng := testEngine(t, Config{CacheFrames: -1, GridFrames: -1})
	a := eng.SnapshotAt(0)
	b := eng.SnapshotAt(0)
	if &a[0] == &b[0] {
		t.Fatal("caching disabled, snapshots should be distinct buffers")
	}
	if st := eng.Stats(); st.Frames != 0 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want no frames/hits with caching off", st)
	}
	// Values still exact.
	if a[0] != b[0] {
		t.Fatal("uncached snapshots disagree")
	}
	if math.IsNaN(a[0].X) {
		t.Fatal("NaN position")
	}
}

// TestPerSatelliteReadsExact pins PositionAt and PositionsAt to the frame
// path bit for bit, for every satellite at on-grid and off-grid instants,
// and checks their accounting: every read counts as a propagation, none
// as a cache lookup.
func TestPerSatelliteReadsExact(t *testing.T) {
	eng := testEngine(t, Config{Workers: 4})
	n := eng.Size()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = n - 1 - i // descending: the batch form must not assume order
	}
	var dst []geo.Vec3
	for _, tt := range []float64{0, 60, 3600, -120, 0.5, 61.25, 1e-9, -37.7, 5399.999} {
		frame := eng.SnapshotAt(tt)
		before := eng.Stats()
		for id := 0; id < n; id++ {
			if got := eng.PositionAt(id, tt); !sameBits(got, frame[id]) {
				t.Fatalf("t=%g sat=%d: PositionAt %v != SnapshotAt %v", tt, id, got, frame[id])
			}
		}
		dst = eng.PositionsAt(tt, ids, dst)
		if len(dst) != n {
			t.Fatalf("PositionsAt returned %d positions, want %d", len(dst), n)
		}
		for i, id := range ids {
			if !sameBits(dst[i], frame[id]) {
				t.Fatalf("t=%g sat=%d: PositionsAt %v != SnapshotAt %v", tt, id, dst[i], frame[id])
			}
		}
		after := eng.Stats()
		if after.Hits != before.Hits || after.Misses != before.Misses || after.Frames != before.Frames {
			t.Fatalf("t=%g: per-satellite reads touched the cache: %+v -> %+v", tt, before, after)
		}
		if got, want := after.PropagatedSats-before.PropagatedSats, uint64(2*n); got != want {
			t.Fatalf("t=%g: PropagatedSats rose by %d, want %d", tt, got, want)
		}
	}
	if got := eng.PositionsAt(0, nil, dst); len(got) != 0 {
		t.Fatalf("empty id list returned %d positions", len(got))
	}
}

func sameBits(a, b geo.Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

// TestPerSatelliteReadsMetric checks that per-satellite reads feed the
// shared ephem_propagated_satellites_total family and not the cache
// counters.
func TestPerSatelliteReadsMetric(t *testing.T) {
	reg := obs.NewRegistry()
	eng := New(testConst(t), Config{Registry: reg})
	eng.PositionAt(3, 42)
	eng.PositionsAt(42, []int{0, 1, 2}, nil)
	if got := reg.Counter("ephem_propagated_satellites_total", "").Value(); got != 4 {
		t.Fatalf("ephem_propagated_satellites_total = %d, want 4", got)
	}
	if h, m := reg.Counter("ephem_cache_hits_total", "").Value(), reg.Counter("ephem_cache_misses_total", "").Value(); h != 0 || m != 0 {
		t.Fatalf("cache counters moved: hits %d misses %d", h, m)
	}
}
