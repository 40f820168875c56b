package metrics

import (
	"fmt"
	"sort"
	"sync"
)

// Kind distinguishes the exposition TYPE of a family.
type Kind int

// Family kinds, matching the Prometheus text-format TYPE keywords.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
	KindUntyped
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// family is one named metric family: either a single unlabeled metric, a
// vec of labeled children, or (for collector-backed families) nothing but
// a name and help — samples arrive at scrape time.
type family struct {
	name string
	help string
	kind Kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram

	counterVec *CounterVec
	histVec    *HistogramVec
}

// Sample is one exposition line emitted by a Collector at scrape time:
// family metadata plus a value under an optional label set. Histogram
// collectors are not supported — maintain real Histograms instead.
type Sample struct {
	Name   string
	Help   string
	Kind   Kind
	Labels []Label
	Value  float64
}

// Collector produces samples on demand, at scrape time. Collectors are
// how derived, high-churn series (per-session budget gauges, queue
// depth, epoch lag) stay off the hot path entirely: the producing
// subsystem is read under its own locks only when /metrics is scraped.
// Emit may be called concurrently with the subsystem's normal operation;
// the collector must do its own locking.
type Collector func(emit func(Sample))

// Registry owns a namespace of metric families and renders them in the
// Prometheus text exposition format. It is not global: each Server
// builds its own Registry so tests and multi-server processes never
// share state. All methods are safe for concurrent use.
//
// Registration panics on a name collision or malformed name — metric
// registration happens at construction time, so a collision is a
// programming error on par with a duplicate flag name.
type Registry struct {
	mu         sync.RWMutex
	families   map[string]*family
	order      []string // sorted family names, rebuilt when dirty
	dirty      bool
	collectors []Collector
	// constLabels are prepended to every sample (registered families and
	// collector output alike) at scrape time. The shard router stamps each
	// core's registry with shard="<i>" so the merged exposition keeps
	// per-shard series distinct; an empty set renders nothing.
	constLabels []Label
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(f *family) {
	if !validName(f.name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", f.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", f.name))
	}
	r.families[f.name] = f
	r.dirty = true
}

// Counter registers and returns a new unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, kind: KindCounter, counter: c})
	return c
}

// Gauge registers and returns a new unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, kind: KindGauge, gauge: g})
	return g
}

// Histogram registers and returns a new unlabeled histogram. A nil or
// empty bounds slice selects DefLatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.register(&family{name: name, help: help, kind: KindHistogram, hist: h})
	return h
}

// CounterVec registers a counter family partitioned by labelNames.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	checkLabelNames(name, labelNames)
	cv := &CounterVec{}
	cv.v.names = append([]string(nil), labelNames...)
	cv.v.byKey = make(map[string]*labeled[Counter])
	cv.v.mk = func() *Counter { return &Counter{} }
	r.register(&family{name: name, help: help, kind: KindCounter, counterVec: cv})
	return cv
}

// HistogramVec registers a histogram family partitioned by labelNames.
// A nil or empty bounds slice selects DefLatencyBuckets.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	checkLabelNames(name, labelNames)
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	b := append([]float64(nil), bounds...)
	hv := &HistogramVec{}
	hv.v.names = append([]string(nil), labelNames...)
	hv.v.byKey = make(map[string]*labeled[Histogram])
	hv.v.mk = func() *Histogram { return newHistogram(b) }
	r.register(&family{name: name, help: help, kind: KindHistogram, histVec: hv})
	return hv
}

// SetConstLabels fixes labels onto every sample this registry renders,
// ahead of the sample's own labels. Call once at construction, before the
// first scrape; label names must be valid and must not collide with any
// family's own label names (the renderer does not dedupe).
func (r *Registry) SetConstLabels(ls ...Label) {
	for _, l := range ls {
		if !validName(l.Name) {
			panic(fmt.Sprintf("metrics: invalid const label name %q", l.Name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.constLabels = append([]Label(nil), ls...)
}

func (r *Registry) snapshotConstLabels() []Label {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.constLabels
}

// RegisterCollector adds a scrape-time sample producer. Collectors run
// in registration order on every scrape, after the registered families.
// Sample names from collectors are NOT checked against registered
// families — a collector owns its names; keep them disjoint.
func (r *Registry) RegisterCollector(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// sortedFamilies returns the families in name order, rebuilding the
// cached order only after a registration.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dirty {
		r.order = r.order[:0]
		for name := range r.families {
			r.order = append(r.order, name)
		}
		sort.Strings(r.order)
		r.dirty = false
	}
	out := make([]*family, len(r.order))
	for i, name := range r.order {
		out[i] = r.families[name]
	}
	return out
}

func (r *Registry) snapshotCollectors() []Collector {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]Collector(nil), r.collectors...)
}

func checkLabelNames(metric string, names []string) {
	if len(names) == 0 {
		panic(fmt.Sprintf("metrics: vec %q declared with no label names", metric))
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if !validName(n) {
			panic(fmt.Sprintf("metrics: vec %q has invalid label name %q", metric, n))
		}
		if seen[n] {
			panic(fmt.Sprintf("metrics: vec %q repeats label name %q", metric, n))
		}
		seen[n] = true
	}
}

// validName enforces the Prometheus metric/label name charset
// [a-zA-Z_][a-zA-Z0-9_]* (colons are reserved for recording rules).
func validName(s string) bool {
	if len(s) == 0 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '_', 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z':
		case '0' <= c && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// sortStrings is a tiny indirection so metrics.go needs no sort import
// of its own.
func sortStrings(s []string) { sort.Strings(s) }
