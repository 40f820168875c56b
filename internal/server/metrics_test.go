package server

import (
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"blowfish/internal/leak"
	"blowfish/internal/service"
)

// metricsFixture drives one of everything through a durable server so the
// scrape has data in every family: a policy, a dataset with rows and
// ingested events, a session with histogram and range releases, and a
// stream with a closed epoch.
func metricsFixture(t *testing.T, s *Server) {
	t.Helper()
	polID := mustCreatePolicy(t, s, service.CreatePolicyRequest{
		Domain: lineDomain,
		Graph:  service.GraphSpec{Kind: "line"},
	})
	dsID := mustCreateDataset(t, s, service.CreateDatasetRequest{PolicyID: polID, Rows: lineRows(128, 64)})
	sessID := mustCreateSession(t, s, service.CreateSessionRequest{PolicyID: polID, Budget: 10})
	if w := do(t, s, "POST", "/v1/sessions/"+sessID+"/releases/histogram",
		service.HistogramRequest{DatasetID: dsID, Epsilon: 0.5}); w.Code != http.StatusOK {
		t.Fatalf("histogram release: status %d body %s", w.Code, w.Body.String())
	}
	if w := do(t, s, "POST", "/v1/sessions/"+sessID+"/releases/range", service.RangeRequest{
		DatasetID: dsID, Epsilon: 0.5, Queries: []service.RangeQuery{{Lo: 0, Hi: 31}},
	}); w.Code != http.StatusOK {
		t.Fatalf("range release: status %d body %s", w.Code, w.Body.String())
	}
	if w := do(t, s, "POST", "/v1/datasets/"+dsID+"/events", service.EventsRequest{
		Events: []service.EventWire{{Op: "append", Row: []int{7}}, {Op: "append", Row: []int{9}}},
	}); w.Code != http.StatusAccepted {
		t.Fatalf("events: status %d body %s", w.Code, w.Body.String())
	}
	stID := mustCreateStream(t, s, service.CreateStreamRequest{
		PolicyID: polID, DatasetID: dsID, Budget: 10,
		Epoch: service.EpochSpec{Epsilon: 0.01},
	})
	if w := do(t, s, "POST", "/v1/streams/"+stID+"/epochs", nil); w.Code != http.StatusOK {
		t.Fatalf("epoch close: status %d body %s", w.Code, w.Body.String())
	}
}

// TestMetricsEndpoint scrapes GET /metrics after exercising every
// subsystem and asserts each metric family of the acceptance criteria is
// present in the Prometheus text exposition.
func TestMetricsEndpoint(t *testing.T) {
	leak.Check(t)
	s, err := openServer(service.Config{Seed: 7, Durability: service.DurabilityConfig{Dir: t.TempDir(), Fsync: "always"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	metricsFixture(t, s)

	w := do(t, s, "GET", "/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d body %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q, want Prometheus text 0.0.4", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		// HTTP middleware: per-route counters and latency histograms.
		`blowfish_http_requests_total{route="POST /v1/sessions/{id}/releases/histogram",status="200"} 1`,
		`blowfish_http_request_seconds_bucket{route="POST /v1/policies",le="+Inf"} 1`,
		// Engine: per-policy, per-kind release latency histograms + counts.
		`blowfish_release_seconds_bucket{shard="0",policy="pol-1",kind="histogram",le="+Inf"} `,
		`blowfish_releases_total{shard="0",policy="pol-1",kind="range"} 1`,
		"blowfish_noise_draws_total",
		// Composition: per-session budget spent/remaining gauges.
		`blowfish_session_budget_spent{shard="0",session="sess-1",policy="pol-1"} 1`,
		`blowfish_session_budget_remaining{shard="0",session="sess-1",policy="pol-1"} 9`,
		// Stream: ingest cursor, epoch lag, waiters, epoch cursor.
		`blowfish_ingest_processed_seq{shard="0",dataset="ds-1"} 2`,
		`blowfish_stream_epoch_lag_seconds{shard="0",stream="stream-1"}`,
		`blowfish_stream_epoch{shard="0",stream="stream-1"} 1`,
		`blowfish_stream_waiters{shard="0",stream="stream-1"} 0`,
		// Ingest apply instruments.
		`blowfish_ingest_events_total{shard="0"} 2`,
		`blowfish_ingest_apply_seconds_count{shard="0"} 1`,
		// WAL: fsync latency histogram, segments, bytes.
		"blowfish_wal_fsync_seconds_count",
		`blowfish_wal_segments{shard="0"} 1`,
		"blowfish_wal_appends_total",
		// Exposition headers.
		"# TYPE blowfish_release_seconds histogram",
		"# TYPE blowfish_wal_fsync_seconds histogram",
		"# HELP blowfish_session_budget_spent",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", body)
	}
}

// TestMetricsHTTPStatusLabels checks that error responses are counted
// under their status code.
func TestMetricsHTTPStatusLabels(t *testing.T) {
	s, _ := newTestServer(t)
	defer s.Close()
	if w := do(t, s, "GET", "/v1/sessions/nope", nil); w.Code != http.StatusNotFound {
		t.Fatalf("expected 404, got %d", w.Code)
	}
	body := do(t, s, "GET", "/metrics", nil).Body.String()
	want := `blowfish_http_requests_total{route="GET /v1/sessions/{id}",status="404"} 1`
	if !strings.Contains(body, want) {
		t.Fatalf("scrape missing %q in:\n%s", want, body)
	}
}

// TestLongPollShutdownRace parks many long-poll release waiters against
// streams whose epochs are closing concurrently, then closes the server
// mid-flight: every waiter must return promptly — with a release, an empty
// clean close, or a late-arrival error — and no goroutine may outlive
// Close (the leak watchdog and the server's own drain accounting agree).
func TestLongPollShutdownRace(t *testing.T) {
	leak.Check(t)
	s, _ := newTestServer(t)
	polID, dsID := streamFixtureIDs(t, s)
	stID := mustCreateStream(t, s, service.CreateStreamRequest{
		PolicyID: polID, DatasetID: dsID, Budget: 1e9,
		Epoch: service.EpochSpec{Epsilon: 0.01},
	})

	const waiters = 24
	var wg sync.WaitGroup
	results := make(chan int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each waiter long-polls with a deadline far beyond the test's
			// patience: only an epoch close or the shutdown can answer it.
			w := do(t, s, "GET", "/v1/streams/"+stID+"/releases?wait_ms=20000", nil)
			results <- w.Code
		}()
	}
	var closers sync.WaitGroup
	stop := make(chan struct{})
	closers.Add(1)
	go func() {
		defer closers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			do(t, s, "POST", "/v1/streams/"+stID+"/epochs", nil)
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(10 * time.Millisecond) // let waiters park and epochs close
	closeDone := make(chan struct{})
	go func() {
		s.Close()
		close(closeDone)
	}()
	select {
	case <-closeDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close hung with long-poll waiters parked")
	}
	close(stop)
	closers.Wait()

	waitersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(waitersDone)
	}()
	select {
	case <-waitersDone:
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll waiters still parked after Server.Close")
	}
	close(results)
	for code := range results {
		// 200 with or without releases is the clean outcome; a request that
		// lost the race with shutdown may see a structured error, but never
		// a hang (enforced above) and never a 5xx.
		if code >= 500 {
			t.Errorf("waiter got status %d", code)
		}
	}
	if n := s.CloseLeaked(); n != 0 {
		t.Errorf("Close abandoned %d goroutines at its drain deadline", n)
	}
}
