// Command blowfish-stress drives a Blowfish policy-release server with
// thousands of concurrent sessions — mixed ad-hoc releases, event ingest,
// epoch closes and long-poll release readers — and writes a latency and
// throughput report (p50/p95/p99 per operation) to a JSON file.
//
// Usage:
//
//	blowfish-stress -sessions 10000 -duration 30s -out BENCH_load.json
//	blowfish-stress -addr http://10.0.0.7:8080 -sessions 1000
//
// With no -addr the harness starts an in-memory server in-process and
// points the load at it over an in-memory listener (net.Pipe pairs, no
// sockets), so a single command produces a load profile and the file-
// descriptor limit never caps -sessions (the CI load-smoke job runs
// exactly that). Against a live -addr it speaks real TCP and only ever
// creates resources under the run's own policy and dataset, so it is
// safe to point at a shared dev server.
//
// The op mix is deterministic (counter-scheduled, splitmix64 row values
// seeded by -seed): two runs against equal servers issue identical request
// sequences per worker, which makes regressions in the report comparable
// run over run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blowfish/internal/server"
	"blowfish/internal/service"
	"blowfish/internal/shard"
)

func main() {
	var (
		addr     = flag.String("addr", "", "target server base URL (empty = start an in-process server)")
		sessions = flag.Int("sessions", 10000, "concurrent release sessions")
		streams  = flag.Int("streams", 8, "continual-release streams, each with a long-poll reader and an epoch closer")
		ingest   = flag.Int("ingesters", 4, "event-ingest feeder goroutines")
		duration = flag.Duration("duration", 30*time.Second, "steady-state load duration")
		out      = flag.String("out", "BENCH_load.json", "report path")
		seed     = flag.Int64("seed", 1, "row-value generator seed")
		setupPar = flag.Int("setup-parallelism", 128, "concurrent session-create requests during setup")
		failErrs = flag.Bool("fail-on-errors", false, "exit 1 if the run recorded any request errors (CI gating)")
	)
	flag.Parse()

	h := &harness{
		sessions: *sessions,
		streams:  *streams,
		ingest:   *ingest,
		duration: *duration,
		seed:     *seed,
		setupPar: *setupPar,
		rec:      newRecorder(),
	}

	tr := &http.Transport{
		MaxIdleConns:        0, // unlimited: every worker keeps its connection warm
		MaxIdleConnsPerHost: *sessions + 4**streams + *ingest + 16,
	}
	var inproc *inprocServer
	h.base = *addr
	if h.base == "" {
		var err error
		inproc, err = startInproc(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "blowfish-stress: %v\n", err)
			os.Exit(1)
		}
		h.base = inproc.base
		tr.DialContext = inproc.ln.dial
	}
	h.client = &http.Client{Transport: tr}

	report, err := h.run()
	if inproc != nil {
		inproc.stop()
		report.InProcess = true
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "blowfish-stress: %v\n", err)
		os.Exit(1)
	}
	payload, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "blowfish-stress: encoding report: %v\n", err)
		os.Exit(1)
	}
	payload = append(payload, '\n')
	if err := os.WriteFile(*out, payload, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "blowfish-stress: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("blowfish-stress: %d sessions, %.0f req/s, %d errors -> %s\n",
		h.sessions, report.Totals.ThroughputRPS, report.Totals.Errors, *out)
	if *failErrs && report.Totals.Errors > 0 {
		for name, op := range report.Ops {
			if op.Errors > 0 {
				fmt.Fprintf(os.Stderr, "blowfish-stress: op %s: %d errors, first: %s\n",
					name, op.Errors, op.FirstError)
			}
		}
		os.Exit(1)
	}
}

// inprocServer is the self-hosted target used when no -addr is given.
// It serves over a memListener rather than a loopback socket: at 10k+
// concurrent sessions a TCP target would burn two file descriptors per
// kept-alive connection (both ends live in this process) and hit the
// fd rlimit long before the server's actual limits.
type inprocServer struct {
	base string
	srv  *server.Server
	http *http.Server
	ln   *memListener
}

func startInproc(seed int64) (*inprocServer, error) {
	router, err := shard.Open(service.Config{Seed: seed}, 1)
	if err != nil {
		return nil, err
	}
	ln := newMemListener()
	srv := server.New(router)
	hs := &http.Server{Handler: srv}
	go func() { _ = hs.Serve(ln) }()
	return &inprocServer{
		base: "http://blowfish.inproc",
		srv:  srv,
		http: hs,
		ln:   ln,
	}, nil
}

func (s *inprocServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx)
	s.srv.Close()
}

// memListener is an in-memory net.Listener: every dial hands the server
// half of a net.Pipe to Accept, so connections cost goroutines and
// channels but zero file descriptors.
type memListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newMemListener() *memListener {
	return &memListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr{} }

// dial is the http.Transport DialContext for the in-process target.
func (l *memListener) dial(ctx context.Context, _, _ string) (net.Conn, error) {
	client, srv := net.Pipe()
	select {
	case l.conns <- srv:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "in-process" }

// --- load harness ----------------------------------------------------------

const (
	domainSize  = 64
	initialRows = 512
	releaseEps  = 0.001
	sessBudget  = 1e6
	batchEvents = 100
)

type harness struct {
	base     string
	client   *http.Client
	sessions int
	streams  int
	ingest   int
	duration time.Duration
	seed     int64
	setupPar int
	rec      *recorder
}

func (h *harness) run() (*Report, error) {
	setupStart := time.Now()
	policyID, datasetID, err := h.setupFixtures()
	if err != nil {
		return nil, err
	}
	sessionIDs, err := h.createSessions(policyID, datasetID)
	if err != nil {
		return nil, err
	}
	streamIDs, err := h.createStreams(policyID, datasetID)
	if err != nil {
		return nil, err
	}
	setupElapsed := time.Since(setupStart)

	ctx, cancel := context.WithTimeout(context.Background(), h.duration)
	defer cancel()
	var wg sync.WaitGroup
	loadStart := time.Now()
	for i, id := range sessionIDs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.sessionWorker(ctx, id, datasetID, h.seed+int64(i))
		}()
	}
	for i := 0; i < h.ingest; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.ingestWorker(ctx, datasetID, h.seed^int64(1000+i))
		}()
	}
	for _, id := range streamIDs {
		wg.Add(2)
		go func() {
			defer wg.Done()
			h.epochWorker(ctx, id)
		}()
		go func() {
			defer wg.Done()
			h.longPollWorker(ctx, id)
		}()
	}
	wg.Wait()
	elapsed := time.Since(loadStart)

	return h.rec.report(reportConfig{
		Target:       h.base,
		Sessions:     h.sessions,
		Streams:      h.streams,
		Ingesters:    h.ingest,
		DurationS:    elapsed.Seconds(),
		SetupS:       setupElapsed.Seconds(),
		StartedUnix:  setupStart.Unix(),
		ReleaseEps:   releaseEps,
		DomainSize:   domainSize,
		BatchEvents:  batchEvents,
		SessionSetup: h.setupPar,
	}), nil
}

// setupFixtures registers the run's policy and dataset.
func (h *harness) setupFixtures() (policyID, datasetID string, err error) {
	dom := []service.AttrSpec{{Name: "v", Size: domainSize}}
	var pol service.PolicyResponse
	if err := h.post(context.Background(), "/v1/policies",
		service.CreatePolicyRequest{Domain: dom, Graph: service.GraphSpec{Kind: "line"}}, &pol); err != nil {
		return "", "", fmt.Errorf("creating policy: %w", err)
	}
	rows := make([][]int, initialRows)
	g := splitmix{state: uint64(h.seed)}
	for i := range rows {
		rows[i] = []int{int(g.next() % domainSize)}
	}
	var ds service.DatasetResponse
	if err := h.post(context.Background(), "/v1/datasets",
		service.CreateDatasetRequest{PolicyID: pol.ID, Rows: rows}, &ds); err != nil {
		return "", "", fmt.Errorf("creating dataset: %w", err)
	}
	return pol.ID, ds.ID, nil
}

// createSessions opens the worker sessions with bounded parallelism,
// recording per-create latency under op "session_create". The dataset id
// rides along as the placement hint: against a sharded server every
// session is colocated with the dataset its releases read, so the run
// measures steady-state release latency rather than routing misses; at
// one shard every resource is on the same core anyway.
func (h *harness) createSessions(policyID, datasetID string) ([]string, error) {
	ids := make([]string, h.sessions)
	sem := make(chan struct{}, h.setupPar)
	var wg sync.WaitGroup
	var firstErr atomic.Value
	for i := range ids {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			var resp service.SessionResponse
			start := time.Now()
			err := h.post(context.Background(), "/v1/sessions",
				service.CreateSessionRequest{PolicyID: policyID, Budget: sessBudget, DatasetID: datasetID}, &resp)
			h.rec.observe("session_create", time.Since(start), err)
			if err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
			ids[i] = resp.ID
		}()
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return nil, fmt.Errorf("creating sessions: %w", err)
	}
	return ids, nil
}

// createStreams opens the continual-release streams (manual epoch closes;
// the epoch workers drive the cadence so close latency is measured).
func (h *harness) createStreams(policyID, datasetID string) ([]string, error) {
	ids := make([]string, 0, h.streams)
	for i := 0; i < h.streams; i++ {
		var resp service.StreamResponse
		err := h.post(context.Background(), "/v1/streams", service.CreateStreamRequest{
			PolicyID:  policyID,
			DatasetID: datasetID,
			Budget:    sessBudget,
			Epoch:     service.EpochSpec{Epsilon: releaseEps},
			Kinds:     []string{"histogram"},
		}, &resp)
		if err != nil {
			return nil, fmt.Errorf("creating stream %d: %w", i, err)
		}
		ids = append(ids, resp.ID)
	}
	return ids, nil
}

// sessionWorker loops a deterministic op mix on one session: 50% range
// releases, 30% histograms, 10% cumulative, 10% budget reads.
func (h *harness) sessionWorker(ctx context.Context, sessionID, datasetID string, seed int64) {
	g := splitmix{state: uint64(seed)}
	for i := 0; ctx.Err() == nil; i++ {
		var (
			op    string
			start = time.Now()
			err   error
		)
		switch i % 10 {
		case 0, 1, 2, 3, 4:
			op = "release_range"
			lo := int(g.next() % (domainSize / 2))
			hi := lo + int(g.next()%(domainSize/2))
			err = h.post(ctx, "/v1/sessions/"+sessionID+"/releases/range", service.RangeRequest{
				DatasetID: datasetID,
				Epsilon:   releaseEps,
				Queries:   []service.RangeQuery{{Lo: lo, Hi: hi}},
			}, nil)
		case 5, 6, 7:
			op = "release_histogram"
			err = h.post(ctx, "/v1/sessions/"+sessionID+"/releases/histogram",
				service.HistogramRequest{DatasetID: datasetID, Epsilon: releaseEps}, nil)
		case 8:
			op = "release_cumulative"
			err = h.post(ctx, "/v1/sessions/"+sessionID+"/releases/cumulative",
				service.CumulativeRequest{DatasetID: datasetID, Epsilon: releaseEps}, nil)
		default:
			op = "session_get"
			err = h.get(ctx, "/v1/sessions/"+sessionID, nil)
		}
		if ctx.Err() != nil {
			return // shutdown cancellation, not a server error
		}
		h.rec.observe(op, time.Since(start), err)
	}
}

// ingestWorker streams event batches into the shared dataset. A 429 is
// the server's designed backpressure signal (nothing was enqueued), not
// a failure: the worker backs off and resends, recording the rejection
// under its own op so queue saturation stays visible in the report.
func (h *harness) ingestWorker(ctx context.Context, datasetID string, seed int64) {
	g := splitmix{state: uint64(seed)}
	for ctx.Err() == nil {
		events := make([]service.EventWire, batchEvents)
		for i := range events {
			events[i] = service.EventWire{Op: "append", Row: []int{int(g.next() % domainSize)}}
		}
		start := time.Now()
		err := h.post(ctx, "/v1/datasets/"+datasetID+"/events",
			service.EventsRequest{Events: events}, nil)
		if ctx.Err() != nil {
			return
		}
		if errors.Is(err, errBackpressure) {
			h.rec.observe("ingest_backpressure", time.Since(start), nil)
			select {
			case <-ctx.Done():
				return
			case <-time.After(5 * time.Millisecond):
			}
			continue
		}
		h.rec.observe("ingest_events", time.Since(start), err)
	}
}

// epochWorker closes its stream's epoch every 100ms.
func (h *harness) epochWorker(ctx context.Context, streamID string) {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		start := time.Now()
		err := h.post(ctx, "/v1/streams/"+streamID+"/epochs", struct{}{}, nil)
		if ctx.Err() != nil {
			return
		}
		h.rec.observe("epoch_close", time.Since(start), err)
	}
}

// longPollWorker follows its stream's release cursor with wait_ms
// long-polls, the pattern a live dashboard consumer uses.
func (h *harness) longPollWorker(ctx context.Context, streamID string) {
	since := uint64(0)
	for ctx.Err() == nil {
		var resp service.StreamReleasesResponse
		start := time.Now()
		err := h.get(ctx, fmt.Sprintf("/v1/streams/%s/releases?since=%d&wait_ms=500", streamID, since), &resp)
		if ctx.Err() != nil {
			return
		}
		h.rec.observe("longpoll_releases", time.Since(start), err)
		if err == nil {
			since = resp.NextSince
		}
	}
}

// --- HTTP plumbing ---------------------------------------------------------

// errBackpressure marks a 429 queue_full response: explicit server
// backpressure a well-behaved producer retries after backing off.
var errBackpressure = errors.New("server backpressure (429 queue_full)")

func (h *harness) post(ctx context.Context, path string, body, into any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return h.do(req, into)
}

func (h *harness) get(ctx context.Context, path string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+path, nil)
	if err != nil {
		return err
	}
	return h.do(req, into)
}

func (h *harness) do(req *http.Request, into any) error {
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusTooManyRequests {
		return fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, errBackpressure)
	}
	if resp.StatusCode >= 400 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(msg))
	}
	if into == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// --- latency recording -----------------------------------------------------

// recorder accumulates per-op latency samples. Sharded by op under one
// mutex each; at thousands of ops/s the append is nanoseconds, so the
// contention is negligible next to an HTTP round trip.
type recorder struct {
	mu  sync.Mutex
	ops map[string]*opSamples
}

type opSamples struct {
	mu       sync.Mutex
	seconds  []float64
	errors   int64
	firstErr string
}

func newRecorder() *recorder {
	return &recorder{ops: make(map[string]*opSamples)}
}

func (r *recorder) op(name string) *opSamples {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.ops[name]
	if !ok {
		s = &opSamples{}
		r.ops[name] = s
	}
	return s
}

func (r *recorder) observe(name string, d time.Duration, err error) {
	s := r.op(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.errors++
		if s.firstErr == "" {
			s.firstErr = err.Error()
		}
		return
	}
	s.seconds = append(s.seconds, d.Seconds())
}

// Report is the BENCH_load.json schema.
type Report struct {
	Config    reportConfig        `json:"config"`
	Totals    reportTotals        `json:"totals"`
	Ops       map[string]opReport `json:"ops"`
	InProcess bool                `json:"in_process"`
}

type reportConfig struct {
	Target       string  `json:"target"`
	Sessions     int     `json:"sessions"`
	Streams      int     `json:"streams"`
	Ingesters    int     `json:"ingesters"`
	DurationS    float64 `json:"duration_s"`
	SetupS       float64 `json:"setup_s"`
	StartedUnix  int64   `json:"started_unix"`
	ReleaseEps   float64 `json:"release_epsilon"`
	DomainSize   int     `json:"domain_size"`
	BatchEvents  int     `json:"batch_events"`
	SessionSetup int     `json:"setup_parallelism"`
}

type reportTotals struct {
	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`
	ThroughputRPS float64 `json:"throughput_rps"`
}

type opReport struct {
	Count      int64   `json:"count"`
	Errors     int64   `json:"errors"`
	FirstError string  `json:"first_error,omitempty"`
	MeanMS     float64 `json:"mean_ms"`
	P50MS      float64 `json:"p50_ms"`
	P95MS      float64 `json:"p95_ms"`
	P99MS      float64 `json:"p99_ms"`
	MaxMS      float64 `json:"max_ms"`
}

func (r *recorder) report(cfg reportConfig) *Report {
	rep := &Report{Config: cfg, Ops: make(map[string]opReport)}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, s := range r.ops {
		s.mu.Lock()
		samples := append([]float64(nil), s.seconds...)
		errs, firstErr := s.errors, s.firstErr
		s.mu.Unlock()
		sort.Float64s(samples)
		op := opReport{Count: int64(len(samples)), Errors: errs, FirstError: firstErr}
		if len(samples) > 0 {
			sum := 0.0
			for _, v := range samples {
				sum += v
			}
			op.MeanMS = sum / float64(len(samples)) * 1000
			op.P50MS = percentile(samples, 0.50) * 1000
			op.P95MS = percentile(samples, 0.95) * 1000
			op.P99MS = percentile(samples, 0.99) * 1000
			op.MaxMS = samples[len(samples)-1] * 1000
		}
		rep.Ops[name] = op
		// session_create happens during setup, before the timed window, so
		// it contributes latency stats but not steady-state throughput.
		if name != "session_create" {
			rep.Totals.Requests += op.Count
		}
		rep.Totals.Errors += errs
	}
	if cfg.DurationS > 0 {
		rep.Totals.ThroughputRPS = float64(rep.Totals.Requests) / cfg.DurationS
	}
	return rep
}

// percentile interpolates q in sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// splitmix is a tiny deterministic value generator for row synthesis (NOT
// privacy noise — releases draw their noise inside the server from
// internal/noise; this only spreads load across domain buckets).
type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
