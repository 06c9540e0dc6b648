// Package ephem is the shared ephemeris engine: the one place that answers
// "where is every satellite at time t" for the whole repository. Every
// consumer that used to call Constellation.Snapshot in its own loop — fleet
// epochs, visibility sweeps, meetup sessions, the figure pipelines — goes
// through an Engine instead, which
//
//   - propagates full-constellation snapshots with a chunked worker pool
//     sized to GOMAXPROCS (a snapshot is embarrassingly parallel: each
//     satellite's position is an independent closed-form evaluation);
//   - keeps a time-keyed keyframe cache so consumers querying the same or
//     nearby instants reuse one propagation instead of repeating it. The
//     cache is two-tier: frames on the keyframe grid (multiples of
//     GridStepSec) live in a protected ring that sequential sweeps cannot
//     flush, all other instants share an LRU pool;
//   - answers per-satellite reads (PositionAt, PositionsAt) for consumers
//     that test only a few satellites at an instant, without building,
//     caching or looking up a frame.
//
// Frames returned by SnapshotAt are immutable and shared: callers must not
// modify them, and may retain them for as long as they like (eviction only
// drops the engine's reference, never reuses the memory). Every position
// is bit-identical to calling Prop.ECEFAt directly, so engine-backed
// pipelines reproduce pre-engine outputs byte for byte.
package ephem

import (
	"container/list"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/obs"
)

// Config tunes an Engine. The zero value picks the defaults noted on each
// field.
type Config struct {
	// Workers bounds snapshot propagation parallelism (default GOMAXPROCS).
	// Workers == 1 propagates inline with no goroutine hand-off.
	Workers int
	// CacheFrames is the LRU capacity, in frames, for snapshots at
	// off-grid instants (default 64; negative disables the LRU tier).
	// One Starlink-scale frame is ~105 KiB.
	CacheFrames int
	// GridFrames is the capacity, in frames, of the protected keyframe
	// ring holding snapshots at multiples of GridStepSec (default 64;
	// negative disables the tier). Grid frames are evicted FIFO and only
	// by other grid frames, so a long off-grid sweep cannot flush the
	// keyframes that lookahead queries keep returning to.
	GridFrames int
	// GridStepSec is the keyframe grid spacing in seconds (default 60,
	// the meetup/fleet lookahead sampling step).
	GridStepSec float64
	// Registry receives the ephem_* metric families (default obs.Default()).
	Registry *obs.Registry
	// Tracer, when set, records one span per propagation batch.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheFrames == 0 {
		c.CacheFrames = 64
	}
	if c.GridFrames == 0 {
		c.GridFrames = 64
	}
	if c.GridStepSec <= 0 {
		c.GridStepSec = 60
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	return c
}

// frame is one cached full-constellation snapshot. pos is immutable once
// published.
type frame struct {
	t   float64
	pos []geo.Vec3
}

// Stats is a point-in-time view of one engine's cache behaviour.
type Stats struct {
	// Hits and Misses count cache lookups across SnapshotAt and
	// SnapshotInto. Per-satellite reads never look up the cache and count
	// as neither.
	Hits, Misses uint64
	// Frames is the number of cached frames currently held (both tiers).
	Frames int
	// PropagatedSats counts individual satellite propagations performed,
	// by frame propagations and per-satellite reads alike.
	PropagatedSats uint64
}

// Engine is a shared, parallel, cached ephemeris for one constellation.
// All methods are safe for concurrent use.
type Engine struct {
	c   *constellation.Constellation
	cfg Config
	m   *metricsSet

	mu        sync.Mutex
	misc      map[uint64]*list.Element // Float64bits(t) → *frame element
	lru       *list.List               // misc eviction order, front = most recent
	grid      map[int64]*frame         // grid index → keyframe
	gridOrder []int64                  // grid insertion order (FIFO eviction)

	hits, misses uint64 // guarded by mu
	propagated   atomic.Uint64
}

// New builds an engine over c. c must be non-nil and already built.
func New(c *constellation.Constellation, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		c:    c,
		cfg:  cfg,
		m:    newMetrics(cfg.Registry),
		misc: make(map[uint64]*list.Element),
		lru:  list.New(),
		grid: make(map[int64]*frame),
	}
}

// Constellation returns the constellation the engine propagates.
func (e *Engine) Constellation() *constellation.Constellation { return e.c }

// Size returns the number of satellites per frame.
func (e *Engine) Size() int { return e.c.Size() }

// GridStepSec returns the keyframe grid spacing.
func (e *Engine) GridStepSec() float64 { return e.cfg.GridStepSec }

// Stats returns this engine's cache counters. Metrics on the configured
// registry aggregate across engines; Stats is always per-engine.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		Hits:           e.hits,
		Misses:         e.misses,
		Frames:         len(e.misc) + len(e.grid),
		PropagatedSats: e.propagated.Load(),
	}
}

// gridIndex reports whether t lies exactly on the keyframe grid — t is
// float64(k)·GridStepSec for an integer k — and, if so, its grid index k.
// Testing t/GridStepSec for integrality instead would map an instant one
// ulp off the grid to the same index, and so to the wrong frame.
func (e *Engine) gridIndex(t float64) (int64, bool) {
	r := math.Round(t / e.cfg.GridStepSec)
	if r*e.cfg.GridStepSec != t || math.Abs(r) > 1e15 { // beyond 2^53 the grid is meaningless
		return 0, false
	}
	return int64(r), true
}

// lookup returns the cached frame for t, or nil. Caller holds e.mu.
func (e *Engine) lookup(t float64) *frame {
	if gi, ok := e.gridIndex(t); ok {
		if f, ok := e.grid[gi]; ok {
			return f
		}
		// A grid instant may still sit in the LRU tier if the grid tier is
		// disabled; fall through.
	}
	if el, ok := e.misc[math.Float64bits(t)]; ok {
		e.lru.MoveToFront(el)
		return el.Value.(*frame)
	}
	return nil
}

// insert publishes f in the cache, evicting per-tier as needed, and
// returns the canonical frame for f.t (an earlier racer's frame wins so
// same-time callers share one buffer). Caller holds e.mu.
func (e *Engine) insert(f *frame) *frame {
	if gi, ok := e.gridIndex(f.t); ok && e.cfg.GridFrames > 0 {
		if have, ok := e.grid[gi]; ok {
			return have
		}
		e.grid[gi] = f
		e.gridOrder = append(e.gridOrder, gi)
		if len(e.gridOrder) > e.cfg.GridFrames {
			delete(e.grid, e.gridOrder[0])
			e.gridOrder = e.gridOrder[1:]
		}
		e.m.frames.Set(float64(len(e.misc) + len(e.grid)))
		return f
	}
	if e.cfg.CacheFrames <= 0 {
		return f
	}
	key := math.Float64bits(f.t)
	if el, ok := e.misc[key]; ok {
		return el.Value.(*frame)
	}
	e.misc[key] = e.lru.PushFront(f)
	if e.lru.Len() > e.cfg.CacheFrames {
		last := e.lru.Back()
		e.lru.Remove(last)
		delete(e.misc, math.Float64bits(last.Value.(*frame).t))
	}
	e.m.frames.Set(float64(len(e.misc) + len(e.grid)))
	return f
}

// SnapshotAt returns the ECEF position of every satellite at t seconds
// after epoch, indexed by satellite ID. The returned slice is shared and
// immutable: do not modify it. Repeated calls for the same t return the
// same backing array while the frame is cached.
func (e *Engine) SnapshotAt(t float64) []geo.Vec3 {
	e.mu.Lock()
	if f := e.lookup(t); f != nil {
		e.hits++
		e.mu.Unlock()
		e.m.hits.Inc()
		return f.pos
	}
	e.misses++
	e.mu.Unlock()
	e.m.misses.Inc()

	pos := make([]geo.Vec3, e.c.Size())
	e.propagate(t, pos)

	e.mu.Lock()
	f := e.insert(&frame{t: t, pos: pos})
	e.mu.Unlock()
	return f.pos
}

// SnapshotInto fills dst (length Size()) with ECEF positions at t seconds
// after epoch. A cache hit is copied out; a miss propagates directly into
// dst without caching, so sweeps over many distinct instants do not churn
// the cache. dst is the caller's to mutate.
func (e *Engine) SnapshotInto(t float64, dst []geo.Vec3) error {
	if len(dst) != e.c.Size() {
		return fmt.Errorf("ephem: SnapshotInto dst length %d, want %d satellites", len(dst), e.c.Size())
	}
	e.mu.Lock()
	if f := e.lookup(t); f != nil {
		e.hits++
		e.mu.Unlock()
		e.m.hits.Inc()
		copy(dst, f.pos)
		return nil
	}
	e.misses++
	e.mu.Unlock()
	e.m.misses.Inc()
	e.propagate(t, dst)
	return nil
}

// propagate fills dst with exact positions at t using the worker pool.
// The chunked parallel loop performs, per satellite, the identical
// float64 operations as the serial loop — only the goroutine doing them
// differs — so results are bit-identical regardless of Workers.
func (e *Engine) propagate(t float64, dst []geo.Vec3) {
	var sp *obs.Span
	if e.cfg.Tracer != nil {
		sp = e.cfg.Tracer.Start("ephem.propagate")
		sp.SetAttr("t_sec", fmt.Sprintf("%g", t))
		sp.SetAttr("sats", fmt.Sprintf("%d", len(dst)))
	}
	start := time.Now()
	sats := e.c.Satellites
	e.parallelFor(len(sats), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = sats[i].Prop.ECEFAt(t)
		}
	})
	e.m.propagateQ.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	e.countPropagated(len(sats))
	if sp != nil {
		sp.End()
	}
}

// PositionAt returns satellite id's ECEF position at t seconds after
// epoch, bit-identical to SnapshotAt(t)[id]. It propagates that one
// satellite without touching the frame cache.
func (e *Engine) PositionAt(id int, t float64) geo.Vec3 {
	e.countPropagated(1)
	return e.c.Satellites[id].Prop.ECEFAt(t)
}

// PositionsAt fills dst[i] with satellite ids[i]'s ECEF position at t,
// bit-identical to SnapshotAt(t)[ids[i]], and returns dst[:len(ids)]. dst
// is grown when too short. Like PositionAt it bypasses the frame cache.
func (e *Engine) PositionsAt(t float64, ids []int, dst []geo.Vec3) []geo.Vec3 {
	if cap(dst) < len(ids) {
		dst = make([]geo.Vec3, len(ids))
	}
	dst = dst[:len(ids)]
	sats := e.c.Satellites
	for i, id := range ids {
		dst[i] = sats[id].Prop.ECEFAt(t)
	}
	e.countPropagated(len(ids))
	return dst
}

// countPropagated charges n satellite propagations to the engine's Stats
// and the shared ephem_propagated_satellites_total counter.
func (e *Engine) countPropagated(n int) {
	e.m.propagated.Add(uint64(n))
	e.propagated.Add(uint64(n))
}

// minParallelSats is the frame size below which fan-out costs more than
// the propagation it parallelises.
const minParallelSats = 512

// parallelFor splits [0, n) into one contiguous chunk per worker and runs
// f on each. With one worker (or n below minParallelSats) it runs inline.
func (e *Engine) parallelFor(n int, f func(lo, hi int)) {
	w := e.cfg.Workers
	if w > n {
		w = n
	}
	if w <= 1 || n < minParallelSats {
		f(0, n)
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
