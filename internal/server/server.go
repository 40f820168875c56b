// Package server is the HTTP front for a blowfish service: it decodes wire
// requests, delegates to a transport-agnostic Service (a single
// service.Core or the shard router), and encodes responses. All domain
// logic — registries, budget accounting, journaling, recovery — lives in
// internal/service; this package owns only routing, content negotiation,
// error-to-status mapping, and request metrics.
package server

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"

	"blowfish"
	"blowfish/internal/metrics"
	"blowfish/internal/service"
)

// Service is the transport-agnostic surface the HTTP front serves. A
// single service.Core implements it directly; the shard router
// (internal/shard) implements it by routing each call to the owning
// shard's core. The front never sees which one it is fronting.
type Service interface {
	Config() service.Config

	CreatePolicy(req service.CreatePolicyRequest) (service.PolicyResponse, error)
	GetPolicy(id string) (service.PolicyResponse, error)
	ListPolicies() service.ListPoliciesResponse
	DeletePolicy(id string) error

	CreateDataset(req service.CreateDatasetRequest) (service.DatasetResponse, error)
	GetDataset(id string) (service.DatasetResponse, error)
	ListDatasets() service.ListDatasetsResponse
	DeleteDataset(id string) error
	IngestEvents(ctx context.Context, datasetID string, events []blowfish.StreamEvent, wait bool) (service.EventsResponse, error)

	CreateSession(req service.CreateSessionRequest) (service.SessionResponse, error)
	GetSession(id string) (service.SessionResponse, error)
	ListSessions() service.ListSessionsResponse
	DeleteSession(id string) error

	Histogram(sessionID string, req service.HistogramRequest) (service.HistogramResponse, error)
	Cumulative(sessionID string, req service.CumulativeRequest) (service.CumulativeResponse, error)
	Range(sessionID string, req service.RangeRequest) (service.RangeResponse, error)

	CreateStream(req service.CreateStreamRequest) (service.StreamResponse, error)
	GetStream(id string) (service.StreamResponse, error)
	ListStreams() service.ListStreamsResponse
	DeleteStream(id string) error
	CloseEpoch(ctx context.Context, id string) (service.EpochReleaseWire, error)
	StreamReleases(ctx context.Context, id string, since uint64, wait time.Duration) (service.StreamReleasesResponse, error)

	Checkpoint() (service.CheckpointStats, error)
	ExpireSessions() int
	SessionCount() int
	StreamCount() int
	CloseLeaked() int
	Close()
	Registries() []*metrics.Registry
}

// A single core is a complete Service.
var _ Service = (*service.Core)(nil)

// Server is the HTTP front over a Service. Create with New, Open or
// NewWith; it implements http.Handler.
type Server struct {
	svc Service
	// core is non-nil when the front wraps exactly one service.Core (New
	// and Open); the white-box accessors the crash/recovery tests use go
	// through it. Router-backed fronts (NewWith) leave it nil.
	core *service.Core
	cfg  service.Config
	mux  *http.ServeMux

	httpRequests *metrics.CounterVec
	httpLatency  *metrics.HistogramVec
	// metricsHandler serves GET /metrics: the core's own registry for a
	// single-core front (byte-identical to the pre-split exposition), a
	// merged multi-registry exposition for a router front.
	metricsHandler http.Handler

	// releases maps a stream id to the *releaseBody of the newest epoch
	// release the front has served for it; see releaseJSON.
	releases sync.Map
	// onReleaseEncode, when set before the first request, runs once per
	// epoch release the front encodes (tests count encodes with it).
	onReleaseEncode func()
}

// New creates an in-memory single-core server.
func New(cfg service.Config) *Server {
	return newFront(service.New(cfg))
}

// Open creates a single-core server, recovering durable state from
// cfg.Durability.Dir when one is configured.
func Open(cfg service.Config) (*Server, error) {
	core, err := service.Open(cfg)
	if err != nil {
		return nil, err
	}
	return newFront(core), nil
}

func newFront(core *service.Core) *Server {
	s := &Server{svc: core, core: core, cfg: core.Config()}
	// The request instruments live in the core's registry so the
	// single-core exposition stays one registry.
	s.httpRequests, s.httpLatency = core.HTTPMetrics()
	s.metricsHandler = core.Metrics().Handler()
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// NewWith fronts an arbitrary Service — in practice the shard router. The
// front owns its own request-metrics registry (requests span shards, so
// they belong to no single core) and serves /metrics as the merged
// exposition of that registry plus every core's.
func NewWith(svc Service) *Server {
	reg := metrics.NewRegistry()
	s := &Server{svc: svc, cfg: svc.Config()}
	s.httpRequests = reg.CounterVec("blowfish_http_requests_total",
		"HTTP requests by route pattern and status code.", "route", "status")
	s.httpLatency = reg.HistogramVec("blowfish_http_request_seconds",
		"HTTP request latency by route pattern.", nil, "route")
	regs := append([]*metrics.Registry{reg}, svc.Registries()...)
	s.metricsHandler = metrics.MergedHandler(regs...)
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

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
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

// Core returns the single service core behind this front, or nil for a
// router-backed front. The crash/recovery tests and the load harness use
// it to reach the white-box accessors.
func (s *Server) Core() *service.Core { return s.core }

// Service returns the service this front serves.
func (s *Server) Service() Service { return s.svc }

// ExpireSessions drops sessions idle past the configured TTL and returns
// how many were removed. Call it periodically (cmd/blowfish-serve runs a
// sweeper goroutine); a zero TTL makes it a no-op.
func (s *Server) ExpireSessions() int { return s.svc.ExpireSessions() }

// SessionCount returns the number of live sessions (diagnostics).
func (s *Server) SessionCount() int { return s.svc.SessionCount() }

// StreamCount returns the number of live streams (diagnostics).
func (s *Server) StreamCount() int { return s.svc.StreamCount() }

// Close stops every background goroutine the service owns; see
// service.Core.Close for the drain-then-checkpoint contract.
func (s *Server) Close() { s.svc.Close() }

// CloseLeaked reports how many stream-ticker / ingest-writer goroutines
// the last Close abandoned at its drain deadline (0 after a clean close).
func (s *Server) CloseLeaked() int { return s.svc.CloseLeaked() }

// Checkpoint snapshots the registries; see service.Core.Checkpoint.
func (s *Server) Checkpoint() (service.CheckpointStats, error) { return s.svc.Checkpoint() }

// MetricsHandler returns the handler behind GET /metrics, for mounting
// the same exposition on an admin mux.
func (s *Server) MetricsHandler() http.Handler { return s.metricsHandler }
