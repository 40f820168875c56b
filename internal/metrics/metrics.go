// Package metrics is the zero-dependency observability core of the
// Blowfish server: atomic counters, gauges and fixed-bucket histograms
// collected into a Registry that renders the Prometheus text exposition
// format (version 0.0.4) on GET /metrics.
//
// The package exists because instrumentation sits inside the release and
// ingest hot paths, where the engine's allocation budget is pinned to a
// handful of allocations per release (engine_alloc_test.go). Every
// mutation method here — Counter.Inc/Add, Gauge.Set/Add,
// Histogram.Observe — is a few atomic operations and zero allocations,
// verified by alloc_test.go. Label resolution (the only allocating step)
// happens once at registration time: callers resolve a Vec's child with
// With and cache the returned pointer next to the code path it counts, so
// a request never touches a map.
//
// Expensive or high-cardinality series (per-session budget gauges, queue
// depths, epoch lag) are not maintained in the hot path at all: they are
// computed at scrape time by collector functions registered with
// RegisterCollector, which read the server's registries under their own
// locks and emit samples directly into the exposition.
package metrics

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64. The zero value is NOT
// usable on its own — obtain counters from a Registry so they render.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable int64 value (queue depths, live-object counts).
type Gauge struct {
	v atomic.Int64
}

// Set overwrites the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by delta (negative to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-boundary cumulative histogram in the Prometheus
// sense: counts per upper bound, plus a running sum and total count.
// Observe is lock-free — one bucket scan plus three atomic updates — and
// allocation-free, so it can sit inside the engine's release path without
// disturbing the alloc pins.
type Histogram struct {
	bounds []float64 // sorted upper bounds; +Inf is implicit
	counts []atomic.Uint64
	sum    atomicFloat
	count  atomic.Uint64
}

// DefLatencyBuckets spans 50µs to 10s exponentially — wide enough for
// both an in-memory histogram release (~tens of µs) and an
// fsync-per-append WAL batch (~ms) on one scale.
var DefLatencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.add(v)
	h.count.Add(1)
}

// ObserveSince records the seconds elapsed since start — the idiom for
// latency instrumentation: start := time.Now(); defer h.ObserveSince(start).
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// snapshot copies the cumulative bucket counts (le ordering, +Inf last),
// the sum and the count, for the exporter.
func (h *Histogram) snapshot() (cum []uint64, sum float64, count uint64) {
	cum = make([]uint64, len(h.counts))
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cum[i] = acc
	}
	return cum, h.sum.load(), h.count.Load()
}

// atomicFloat is a float64 accumulated with a compare-and-swap loop over
// its bit pattern — the standard lock-free float add.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// Label is one name/value pair of a sample emitted by a collector.
type Label struct {
	Name  string
	Value string
}

// labeled pairs a rendered label-set key with a metric child inside a Vec.
type labeled[M any] struct {
	labels []Label
	m      *M
}

// vec is the shared child registry behind CounterVec and HistogramVec: children keyed by the rendered label values, created on
// first With. With allocates (key construction, map insert) — resolve
// children once and cache the pointer; never call With per operation on a
// hot path.
type vec[M any] struct {
	mu     sync.RWMutex
	names  []string
	byKey  map[string]*labeled[M]
	mk     func() *M
	sealed func() // invalidates the registry's sorted cache
}

func (v *vec[M]) with(values ...string) *M {
	if len(values) != len(v.names) {
		panic("metrics: label value count does not match the vec's label names")
	}
	key := joinKey(values)
	v.mu.RLock()
	c, ok := v.byKey[key]
	v.mu.RUnlock()
	if ok {
		return c.m
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.byKey[key]; ok {
		return c.m
	}
	labels := make([]Label, len(values))
	for i, val := range values {
		labels[i] = Label{Name: v.names[i], Value: val}
	}
	c = &labeled[M]{labels: labels, m: v.mk()}
	v.byKey[key] = c
	if v.sealed != nil {
		v.sealed()
	}
	return c.m
}

// children returns the label/metric pairs sorted by key, for the exporter.
func (v *vec[M]) children() []*labeled[M] {
	v.mu.RLock()
	defer v.mu.RUnlock()
	keys := make([]string, 0, len(v.byKey))
	for k := range v.byKey {
		keys = append(keys, k)
	}
	sortStrings(keys)
	out := make([]*labeled[M], len(keys))
	for i, k := range keys {
		out[i] = v.byKey[k]
	}
	return out
}

// joinKey renders label values into one map key. 0x1f (unit separator)
// cannot collide with realistic label values (resource ids, route
// patterns, status codes).
func joinKey(values []string) string {
	n := 0
	for _, v := range values {
		n += len(v) + 1
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, 0x1f)
		}
		b = append(b, v...)
	}
	return string(b)
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ v vec[Counter] }

// With resolves (creating on first use) the child for the label values,
// in the order the label names were declared. Cache the result; With
// allocates.
func (cv *CounterVec) With(values ...string) *Counter { return cv.v.with(values...) }

// HistogramVec is a histogram family partitioned by labels; every child
// shares the family's bucket boundaries.
type HistogramVec struct{ v vec[Histogram] }

// With resolves the child histogram for the label values. Cache the result.
func (hv *HistogramVec) With(values ...string) *Histogram { return hv.v.with(values...) }
