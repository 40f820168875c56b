// Package server is the HTTP front for a blowfish service: it decodes wire
// requests, delegates to the shard router (internal/shard, which places
// each resource on one of its service cores), and encodes responses. All
// domain logic — registries, budget accounting, journaling, recovery —
// lives in internal/service; this package owns only routing, content
// negotiation, error-to-status mapping, and the process-wide metrics.
package server

import (
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"blowfish/internal/metrics"
	"blowfish/internal/shard"
)

// Server is the HTTP front over a shard router. Create with New; it
// implements http.Handler.
type Server struct {
	router *shard.Router
	mux    *http.ServeMux

	httpRequests *metrics.CounterVec
	httpLatency  *metrics.HistogramVec
	// metricsHandler serves GET /metrics: the front's registry (HTTP
	// requests, Go runtime) followed by every shard core's.
	metricsHandler http.Handler

	// releases maps a stream id to the *releaseBody of the newest epoch
	// release the front has served for it; see releaseJSON.
	releases sync.Map
	// onReleaseEncode, when set before the first request, runs once per
	// epoch release the front encodes (tests count encodes with it).
	onReleaseEncode func()
}

// New fronts a shard router. The front owns the process-wide metric
// families — request counts and latencies (requests belong to no single
// core) and the Go runtime gauges — and serves /metrics as the merged
// exposition of its registry plus every core's.
func New(router *shard.Router) *Server {
	reg := metrics.NewRegistry()
	s := &Server{router: router}
	s.httpRequests = reg.CounterVec("blowfish_http_requests_total",
		"HTTP requests by route pattern and status code.", "route", "status")
	s.httpLatency = reg.HistogramVec("blowfish_http_request_seconds",
		"HTTP request latency by route pattern.", nil, "route")
	reg.RegisterCollector(collectRuntime)
	s.metricsHandler = metrics.MergedHandler(append([]*metrics.Registry{reg}, router.Registries()...)...)
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

func (s *Server) routes() {
	s.handle("GET /v1/healthz", s.handleHealth)
	s.handle("POST /v1/policies", s.handleCreatePolicy)
	s.handle("GET /v1/policies", s.handleListPolicies)
	s.handle("GET /v1/policies/{id}", s.handleGetPolicy)
	s.handle("DELETE /v1/policies/{id}", s.handleDeletePolicy)
	s.handle("POST /v1/datasets", s.handleCreateDataset)
	s.handle("GET /v1/datasets", s.handleListDatasets)
	s.handle("GET /v1/datasets/{id}", s.handleGetDataset)
	s.handle("DELETE /v1/datasets/{id}", s.handleDeleteDataset)
	s.handle("POST /v1/datasets/{id}/events", s.handleDatasetEvents)
	s.handle("POST /v1/sessions", s.handleCreateSession)
	s.handle("GET /v1/sessions", s.handleListSessions)
	s.handle("GET /v1/sessions/{id}", s.handleGetSession)
	s.handle("DELETE /v1/sessions/{id}", s.handleDeleteSession)
	s.handle("POST /v1/sessions/{id}/releases/histogram", s.handleHistogram)
	s.handle("POST /v1/sessions/{id}/releases/cumulative", s.handleCumulative)
	s.handle("POST /v1/sessions/{id}/releases/range", s.handleRange)
	s.handle("POST /v1/streams", s.handleCreateStream)
	s.handle("GET /v1/streams", s.handleListStreams)
	s.handle("GET /v1/streams/{id}", s.handleGetStream)
	s.handle("DELETE /v1/streams/{id}", s.handleDeleteStream)
	s.handle("POST /v1/streams/{id}/epochs", s.handleCloseEpoch)
	s.handle("GET /v1/streams/{id}/releases", s.handleStreamReleases)
	s.handle("POST /v1/admin/checkpoint", s.handleCheckpoint)
	// The exposition itself is served unwrapped: a scrape should not
	// perturb the request counters it reads.
	s.mux.Handle("GET /metrics", s.metricsHandler)
}

// maxBodyBytes caps every request body; a longer body is refused with
// 400 bad_request.
const maxBodyBytes = 32 << 20

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	}
	s.mux.ServeHTTP(w, r)
}

// handle registers an instrumented route: latency histogram resolved once
// at registration, request counter labeled by pattern and status.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	lat := s.httpLatency.With(pattern)
	requests := s.httpRequests
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(&sw, r)
		lat.ObserveSince(start)
		requests.With(pattern, strconv.Itoa(sw.status)).Inc()
	})
}

// statusWriter captures the response status for the request counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so long-poll responses keep
// streaming through the instrumentation wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ExpireSessions drops sessions idle past the configured TTL and returns
// how many were removed. Call it periodically (cmd/blowfish-serve runs a
// sweeper goroutine); a zero TTL makes it a no-op.
func (s *Server) ExpireSessions() int { return s.router.ExpireSessions() }

// Close shuts every shard core down; see service.Core.Close for the
// stop-then-checkpoint contract.
func (s *Server) Close() { s.router.Close() }

// CloseLeaked reports how many stream-ticker goroutines the last Close
// abandoned at its drain deadline (0 after a clean close).
func (s *Server) CloseLeaked() int { return s.router.CloseLeaked() }

// MetricsHandler returns the handler behind GET /metrics, for mounting
// the same exposition on an admin mux.
func (s *Server) MetricsHandler() http.Handler { return s.metricsHandler }

// collectRuntime emits the process-level gauges a leak investigation
// starts from.
func collectRuntime(emit func(metrics.Sample)) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	emit(metrics.Sample{
		Name: "go_goroutines", Help: "Live goroutines.",
		Kind: metrics.KindGauge, Value: float64(runtime.NumGoroutine()),
	})
	emit(metrics.Sample{
		Name: "go_memstats_heap_alloc_bytes", Help: "Heap bytes in use.",
		Kind: metrics.KindGauge, Value: float64(ms.HeapAlloc),
	})
	emit(metrics.Sample{
		Name: "go_memstats_total_alloc_bytes_total", Help: "Cumulative heap bytes allocated.",
		Kind: metrics.KindCounter, Value: float64(ms.TotalAlloc),
	})
	emit(metrics.Sample{
		Name: "go_gc_cycles_total", Help: "Completed GC cycles.",
		Kind: metrics.KindCounter, Value: float64(ms.NumGC),
	})
}
