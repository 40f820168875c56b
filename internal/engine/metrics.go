package engine

import (
	"time"

	"blowfish/internal/metrics"
)

// ReleaseMetrics instruments one release kind: wall-clock latency of the
// successful release (truth read + noise + charge) and a completion
// count. Either field may be nil; observe skips what is absent.
type ReleaseMetrics struct {
	Latency *metrics.Histogram
	Count   *metrics.Counter
}

func (r *ReleaseMetrics) observe(start time.Time) {
	if r.Latency != nil {
		r.Latency.ObserveSince(start)
	}
	if r.Count != nil {
		r.Count.Inc()
	}
}

// Metrics holds the engine's pre-resolved instruments, one ReleaseMetrics
// per release kind plus a count of noisy releases. The server resolves
// labeled children (per policy, per kind) once at session construction
// and hands the engine bare pointers, so the hot path never touches a
// label map — the engine's release paths stay within their alloc pins.
type Metrics struct {
	Histogram  ReleaseMetrics
	Partition  ReleaseMetrics
	Cumulative ReleaseMetrics
	Range      ReleaseMetrics
	KMeans     ReleaseMetrics
	// NoiseDraws counts noisy releases started: one per release that
	// takes a generator, however many variates it then draws.
	NoiseDraws *metrics.Counter
}

// SetMetrics installs the engine's instruments. Pass nil to disable. The
// pointer is stored atomically, so installation may happen after the
// engine is already serving (recovery wires metrics onto rebuilt
// engines); the Metrics struct itself must not be mutated once installed.
func (e *Engine) SetMetrics(m *Metrics) { e.metrics.Store(m) }

// releaseStart samples the clock only when instrumentation is installed,
// so uninstrumented engines pay a single atomic load per release.
func (e *Engine) releaseStart() (*Metrics, time.Time) {
	m := e.metrics.Load()
	if m == nil {
		return nil, time.Time{}
	}
	return m, time.Now()
}
