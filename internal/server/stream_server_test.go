package server

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"blowfish"
	"blowfish/internal/leak"
	"blowfish/internal/service"
)

// streamFixtureIDs registers an l1 line policy and an empty dataset over
// its domain, returning both ids.
func streamFixtureIDs(t *testing.T, s *Server) (polID, dsID string) {
	t.Helper()
	polID = mustCreatePolicy(t, s, service.CreatePolicyRequest{
		Domain: lineDomain,
		Graph:  service.GraphSpec{Kind: "l1", Theta: 4},
	})
	dsID = mustCreateDataset(t, s, service.CreateDatasetRequest{PolicyID: polID})
	return polID, dsID
}

// mustCreateStream opens a stream and returns its id.
func mustCreateStream(t *testing.T, s *Server, req service.CreateStreamRequest) string {
	t.Helper()
	w := do(t, s, "POST", "/v1/streams", req)
	if w.Code != http.StatusCreated {
		t.Fatalf("create stream: status %d body %s", w.Code, w.Body.String())
	}
	return decode[service.StreamResponse](t, w).ID
}

// postEvents submits an events batch and asserts acceptance.
func postEvents(t *testing.T, s *Server, dsID string, events []service.EventWire) service.EventsResponse {
	t.Helper()
	w := do(t, s, "POST", "/v1/datasets/"+dsID+"/events", service.EventsRequest{Events: events})
	if w.Code != http.StatusAccepted {
		t.Fatalf("post events: status %d body %s", w.Code, w.Body.String())
	}
	return decode[service.EventsResponse](t, w)
}

func appendEvents(vals ...int) []service.EventWire {
	evs := make([]service.EventWire, len(vals))
	for i, v := range vals {
		evs[i] = service.EventWire{Op: "append", Row: []int{v}}
	}
	return evs
}

// TestStreamLifecycle walks the full flow: create stream → ingest events →
// close epochs → poll releases with a cursor → exhaust the budget.
func TestStreamLifecycle(t *testing.T) {
	s, _ := newTestServer(t)
	defer s.Close()
	polID, dsID := streamFixtureIDs(t, s)
	stID := mustCreateStream(t, s, service.CreateStreamRequest{
		PolicyID:  polID,
		DatasetID: dsID,
		Budget:    0.3,
		Epoch:     service.EpochSpec{Epsilon: 0.1},
	})

	resp := postEvents(t, s, dsID, appendEvents(1, 2, 2, 3))
	if resp.Accepted != 4 || resp.FirstSeq != 1 || resp.LastSeq != 4 || resp.Rejected != 0 {
		t.Fatalf("events response = %+v", resp)
	}

	// First epoch close releases a noisy histogram over the 4 rows.
	w := do(t, s, "POST", "/v1/streams/"+stID+"/epochs", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("close epoch: status %d body %s", w.Code, w.Body.String())
	}
	rel := decode[service.EpochReleaseWire](t, w)
	if rel.Seq != 1 || rel.Epoch != 0 || rel.Rows != 4 || len(rel.Histogram) != 64 {
		t.Fatalf("release = %+v", rel)
	}
	if math.Abs(rel.Remaining-0.2) > 1e-9 {
		t.Fatalf("remaining = %v, want 0.2", rel.Remaining)
	}

	// More events, second close, then poll with the cursor: only the new
	// release comes back.
	postEvents(t, s, dsID, appendEvents(10, 11))
	w = do(t, s, "POST", "/v1/streams/"+stID+"/epochs", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("close epoch 2: status %d body %s", w.Code, w.Body.String())
	}
	w = do(t, s, "GET", "/v1/streams/"+stID+"/releases?since=1", nil)
	polled := decode[service.StreamReleasesResponse](t, w)
	if len(polled.Releases) != 1 || polled.Releases[0].Seq != 2 || polled.NextSince != 2 {
		t.Fatalf("poll = %+v", polled)
	}
	if polled.Releases[0].Rows != 6 {
		t.Fatalf("epoch 1 rows = %d, want 6 (cumulative window)", polled.Releases[0].Rows)
	}

	// Third close exhausts; fourth refuses with the structured error.
	w = do(t, s, "POST", "/v1/streams/"+stID+"/epochs", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("close epoch 3: status %d body %s", w.Code, w.Body.String())
	}
	w = do(t, s, "POST", "/v1/streams/"+stID+"/epochs", nil)
	wantError(t, w, http.StatusConflict, service.CodeBudgetExhausted)

	st := decode[service.StreamResponse](t, do(t, s, "GET", "/v1/streams/"+stID, nil))
	if !st.Exhausted || st.Epoch != 3 || st.Spent < 0.3-1e-9 {
		t.Fatalf("stream status = %+v, want exhausted after 3 epochs", st)
	}
	// A poll past the last release on an exhausted stream tells the poller
	// to stop (budget_exhausted) instead of hanging.
	w = do(t, s, "GET", "/v1/streams/"+stID+"/releases?since=3&wait_ms=50", nil)
	wantError(t, w, http.StatusConflict, service.CodeBudgetExhausted)
}

// TestStreamReproducible pins the acceptance criterion end to end: two
// servers with the same base seed replaying the same stream produce
// bit-for-bit identical epoch releases.
func TestStreamReproducible(t *testing.T) {
	run := func() []float64 {
		s, _ := newTestServer(t)
		defer s.Close()
		polID, dsID := streamFixtureIDs(t, s)
		stID := mustCreateStream(t, s, service.CreateStreamRequest{
			PolicyID:  polID,
			DatasetID: dsID,
			Budget:    1,
			Epoch:     service.EpochSpec{Epsilon: 0.5},
		})
		postEvents(t, s, dsID, appendEvents(5, 9, 9, 30, 31))
		w := do(t, s, "POST", "/v1/streams/"+stID+"/epochs", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("close epoch: status %d body %s", w.Code, w.Body.String())
		}
		return decode[service.EpochReleaseWire](t, w).Histogram
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hist[%d] differs across replays: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestStreamNDJSONEvents submits the line-delimited encoding.
func TestStreamNDJSONEvents(t *testing.T) {
	s, _ := newTestServer(t)
	defer s.Close()
	_, dsID := streamFixtureIDs(t, s)
	body := `{"op":"append","row":[1]}
{"op":"append","row":[2]}

{"op":"upsert","id":0,"row":[3]}
`
	req := httptest.NewRequest("POST", "/v1/datasets/"+dsID+"/events", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/x-ndjson")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("ndjson post: status %d body %s", w.Code, w.Body.String())
	}
	resp := decode[service.EventsResponse](t, w)
	if resp.Accepted != 3 || resp.LastSeq != 3 {
		t.Fatalf("ndjson response = %+v", resp)
	}
	ds := decode[service.DatasetResponse](t, do(t, s, "GET", "/v1/datasets/"+dsID, nil))
	if ds.Rows != 2 {
		t.Fatalf("rows = %d, want 2", ds.Rows)
	}
	// Malformed line surfaces as a structured bad request.
	req = httptest.NewRequest("POST", "/v1/datasets/"+dsID+"/events", strings.NewReader(`{"op":`))
	req.Header.Set("Content-Type", "application/x-ndjson")
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	wantError(t, w, http.StatusBadRequest, service.CodeBadRequest)
}

// TestStreamLongPoll asserts a waiting releases poll wakes on epoch close.
func TestStreamLongPoll(t *testing.T) {
	s, _ := newTestServer(t)
	defer s.Close()
	polID, dsID := streamFixtureIDs(t, s)
	stID := mustCreateStream(t, s, service.CreateStreamRequest{
		PolicyID: polID, DatasetID: dsID, Budget: 1, Epoch: service.EpochSpec{Epsilon: 0.1},
	})
	postEvents(t, s, dsID, appendEvents(1))
	type result struct {
		w *httptest.ResponseRecorder
	}
	got := make(chan result, 1)
	go func() {
		got <- result{do(t, s, "GET", "/v1/streams/"+stID+"/releases?wait_ms=10000", nil)}
	}()
	time.Sleep(20 * time.Millisecond) // let the poller block
	if w := do(t, s, "POST", "/v1/streams/"+stID+"/epochs", nil); w.Code != http.StatusOK {
		t.Fatalf("close epoch: status %d body %s", w.Code, w.Body.String())
	}
	select {
	case r := <-got:
		if r.w.Code != http.StatusOK {
			t.Fatalf("long-poll: status %d body %s", r.w.Code, r.w.Body.String())
		}
		resp := decode[service.StreamReleasesResponse](t, r.w)
		if len(resp.Releases) != 1 || resp.NextSince != 1 {
			t.Fatalf("long-poll = %+v", resp)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll never woke")
	}
	// An elapsed wait returns an empty list, not an error.
	w := do(t, s, "GET", "/v1/streams/"+stID+"/releases?since=1&wait_ms=30", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("elapsed wait: status %d body %s", w.Code, w.Body.String())
	}
	if resp := decode[service.StreamReleasesResponse](t, w); len(resp.Releases) != 0 || resp.NextSince != 1 {
		t.Fatalf("elapsed wait = %+v", resp)
	}
	// A hostile cursor (uint64 max) is an empty answer, not a panic.
	w = do(t, s, "GET", "/v1/streams/"+stID+"/releases?since=18446744073709551615", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("huge cursor: status %d body %s", w.Code, w.Body.String())
	}
	if resp := decode[service.StreamReleasesResponse](t, w); len(resp.Releases) != 0 {
		t.Fatalf("huge cursor = %+v", resp)
	}

	// A wait too large for time.Duration is clamped to MaxLongPollWait
	// like any other, not wrapped into a poll that returns at once.
	capped := newServer(t, service.Config{Seed: 42, MaxLongPollWait: 50 * time.Millisecond})
	defer capped.Close()
	polID, dsID = streamFixtureIDs(t, capped)
	stID = mustCreateStream(t, capped, service.CreateStreamRequest{
		PolicyID: polID, DatasetID: dsID, Budget: 1, Epoch: service.EpochSpec{Epsilon: 0.1},
	})
	start := time.Now()
	w = do(t, capped, "GET", "/v1/streams/"+stID+"/releases?wait_ms=10000000000000", nil)
	if elapsed := time.Since(start); elapsed < 45*time.Millisecond {
		t.Fatalf("huge wait_ms answered after %v, want about the 50ms cap", elapsed)
	}
	if w.Code != http.StatusOK {
		t.Fatalf("huge wait: status %d body %s", w.Code, w.Body.String())
	}
	if resp := decode[service.StreamReleasesResponse](t, w); len(resp.Releases) != 0 {
		t.Fatalf("huge wait = %+v", resp)
	}
}

// TestStreamAutomaticEpochs exercises the interval-driven scheduler through
// the server: releases appear without manual closes, and DELETE stops it.
func TestStreamAutomaticEpochs(t *testing.T) {
	s, _ := newTestServer(t)
	defer s.Close()
	polID, dsID := streamFixtureIDs(t, s)
	stID := mustCreateStream(t, s, service.CreateStreamRequest{
		PolicyID: polID, DatasetID: dsID, Budget: 1,
		Epoch: service.EpochSpec{Epsilon: 0.01, IntervalMS: 1},
	})
	postEvents(t, s, dsID, appendEvents(1, 2))
	w := do(t, s, "GET", "/v1/streams/"+stID+"/releases?wait_ms=10000", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("poll: status %d body %s", w.Code, w.Body.String())
	}
	if resp := decode[service.StreamReleasesResponse](t, w); len(resp.Releases) == 0 {
		t.Fatal("no automatic release arrived")
	}
	if w := do(t, s, "DELETE", "/v1/streams/"+stID, nil); w.Code != http.StatusNoContent {
		t.Fatalf("delete stream: status %d", w.Code)
	}
	if s.router.StreamCount() != 0 {
		t.Fatalf("stream count = %d after delete", s.router.StreamCount())
	}
}

// TestDeletionGuards pins referential integrity: datasets and policies with
// live streams refuse deletion until the stream goes.
func TestDeletionGuards(t *testing.T) {
	s, _ := newTestServer(t)
	defer s.Close()
	polID, dsID := streamFixtureIDs(t, s)
	stID := mustCreateStream(t, s, service.CreateStreamRequest{
		PolicyID: polID, DatasetID: dsID, Budget: 1, Epoch: service.EpochSpec{Epsilon: 0.1},
	})
	wantError(t, do(t, s, "DELETE", "/v1/datasets/"+dsID, nil), http.StatusConflict, service.CodeDatasetInUse)
	wantError(t, do(t, s, "DELETE", "/v1/policies/"+polID, nil), http.StatusConflict, service.CodePolicyInUse)
	if w := do(t, s, "DELETE", "/v1/streams/"+stID, nil); w.Code != http.StatusNoContent {
		t.Fatalf("delete stream: status %d", w.Code)
	}
	if w := do(t, s, "DELETE", "/v1/datasets/"+dsID, nil); w.Code != http.StatusNoContent {
		t.Fatalf("delete dataset after stream: status %d body %s", w.Code, w.Body.String())
	}
	if w := do(t, s, "DELETE", "/v1/policies/"+polID, nil); w.Code != http.StatusNoContent {
		t.Fatalf("delete policy after stream: status %d body %s", w.Code, w.Body.String())
	}
}

// TestWindowedStreamExclusivity pins the sharing rule: cumulative streams
// coexist on one dataset, but a tumbling/sliding stream needs the dataset
// to itself (its closes reset data and rewrite epoch tags other streams
// would see).
func TestWindowedStreamExclusivity(t *testing.T) {
	s, _ := newTestServer(t)
	defer s.Close()
	polID, dsID := streamFixtureIDs(t, s)
	mustCreateStream(t, s, service.CreateStreamRequest{
		PolicyID: polID, DatasetID: dsID, Budget: 1, Epoch: service.EpochSpec{Epsilon: 0.1},
	})
	// A second cumulative stream coexists.
	mustCreateStream(t, s, service.CreateStreamRequest{
		PolicyID: polID, DatasetID: dsID, Budget: 1, Epoch: service.EpochSpec{Epsilon: 0.1},
	})
	// A windowed stream on the shared dataset is refused...
	wantError(t, do(t, s, "POST", "/v1/streams", service.CreateStreamRequest{
		PolicyID: polID, DatasetID: dsID, Budget: 1, Epoch: service.EpochSpec{Epsilon: 0.1},
		Window: service.WindowSpec{Kind: "tumbling"},
	}), http.StatusConflict, service.CodeDatasetInUse)
	// ...and a dataset carrying a windowed stream admits no second stream.
	ds2 := mustCreateDataset(t, s, service.CreateDatasetRequest{PolicyID: polID})
	mustCreateStream(t, s, service.CreateStreamRequest{
		PolicyID: polID, DatasetID: ds2, Budget: 1, Epoch: service.EpochSpec{Epsilon: 0.1},
		Window: service.WindowSpec{Kind: "sliding", Epochs: 2},
	})
	wantError(t, do(t, s, "POST", "/v1/streams", service.CreateStreamRequest{
		PolicyID: polID, DatasetID: ds2, Budget: 1, Epoch: service.EpochSpec{Epsilon: 0.1},
	}), http.StatusConflict, service.CodeDatasetInUse)
}

// TestListEndpoints pins the enumeration surface: ids come back in numeric
// order with live row counts and budgets.
func TestListEndpoints(t *testing.T) {
	s, _ := newTestServer(t)
	defer s.Close()
	var polIDs, dsIDs []string
	for i := 0; i < 3; i++ {
		polIDs = append(polIDs, mustCreatePolicy(t, s, service.CreatePolicyRequest{
			Domain: lineDomain, Graph: service.GraphSpec{Kind: "l1", Theta: float64(i + 1)},
		}))
		dsIDs = append(dsIDs, mustCreateDataset(t, s, service.CreateDatasetRequest{
			Domain: lineDomain, Rows: lineRows(i+1, 64),
		}))
	}
	sessID := mustCreateSession(t, s, service.CreateSessionRequest{PolicyID: polIDs[1], Budget: 2})
	stID := mustCreateStream(t, s, service.CreateStreamRequest{
		PolicyID: polIDs[0], DatasetID: dsIDs[0], Budget: 1, Epoch: service.EpochSpec{Epsilon: 0.1},
	})

	pols := decode[service.ListPoliciesResponse](t, do(t, s, "GET", "/v1/policies", nil))
	if len(pols.Policies) != 3 {
		t.Fatalf("policies = %d, want 3", len(pols.Policies))
	}
	for i, p := range pols.Policies {
		if p.ID != polIDs[i] {
			t.Fatalf("policy order: got %q at %d, want %q", p.ID, i, polIDs[i])
		}
	}
	dss := decode[service.ListDatasetsResponse](t, do(t, s, "GET", "/v1/datasets", nil))
	if len(dss.Datasets) != 3 {
		t.Fatalf("datasets = %d, want 3", len(dss.Datasets))
	}
	for i, d := range dss.Datasets {
		if d.ID != dsIDs[i] || d.Rows != i+1 {
			t.Fatalf("dataset %d = %+v", i, d)
		}
	}
	sessions := decode[service.ListSessionsResponse](t, do(t, s, "GET", "/v1/sessions", nil))
	if len(sessions.Sessions) != 1 || sessions.Sessions[0].ID != sessID || sessions.Sessions[0].Budget != 2 {
		t.Fatalf("sessions = %+v", sessions)
	}
	streams := decode[service.ListStreamsResponse](t, do(t, s, "GET", "/v1/streams", nil))
	if len(streams.Streams) != 1 || streams.Streams[0].ID != stID {
		t.Fatalf("streams = %+v", streams)
	}
}

// TestStreamBadRequests pins the structured errors of the new surface.
func TestStreamBadRequests(t *testing.T) {
	s, _ := newTestServer(t)
	defer s.Close()
	polID, dsID := streamFixtureIDs(t, s)
	wantError(t, do(t, s, "POST", "/v1/streams", service.CreateStreamRequest{
		PolicyID: "pol-404", DatasetID: dsID, Budget: 1, Epoch: service.EpochSpec{Epsilon: 0.1},
	}), http.StatusNotFound, service.CodeUnknownPolicy)
	wantError(t, do(t, s, "POST", "/v1/streams", service.CreateStreamRequest{
		PolicyID: polID, DatasetID: "ds-404", Budget: 1, Epoch: service.EpochSpec{Epsilon: 0.1},
	}), http.StatusNotFound, service.CodeUnknownDataset)
	wantError(t, do(t, s, "POST", "/v1/streams", service.CreateStreamRequest{
		PolicyID: polID, DatasetID: dsID, Budget: 1, // no epsilon schedule
	}), http.StatusBadRequest, service.CodeBadRequest)
	// Foreign-domain dataset → structured domain mismatch.
	otherDS := mustCreateDataset(t, s, service.CreateDatasetRequest{Domain: []service.AttrSpec{{Name: "w", Size: 9}}})
	wantError(t, do(t, s, "POST", "/v1/streams", service.CreateStreamRequest{
		PolicyID: polID, DatasetID: otherDS, Budget: 1, Epoch: service.EpochSpec{Epsilon: 0.1},
	}), http.StatusUnprocessableEntity, service.CodeDomainMismatch)
	wantError(t, do(t, s, "GET", "/v1/streams/stream-404", nil), http.StatusNotFound, service.CodeUnknownStream)
	wantError(t, do(t, s, "POST", "/v1/streams/stream-404/epochs", nil), http.StatusNotFound, service.CodeUnknownStream)
	wantError(t, do(t, s, "POST", "/v1/datasets/"+dsID+"/events", service.EventsRequest{}), http.StatusBadRequest, service.CodeBadRequest)
	wantError(t, do(t, s, "POST", "/v1/datasets/"+dsID+"/events", service.EventsRequest{
		Events: []service.EventWire{{Op: "append", Row: []int{999}}},
	}), http.StatusBadRequest, service.CodeBadRequest)
}

// TestServerClose pins shutdown semantics: Close is idempotent, stops the
// stream schedulers, keeps every acked event, and refuses resource
// creation and further ingestion afterwards.
func TestServerClose(t *testing.T) {
	s, _ := newTestServer(t)
	polID, dsID := streamFixtureIDs(t, s)
	mustCreateStream(t, s, service.CreateStreamRequest{
		PolicyID: polID, DatasetID: dsID, Budget: 1,
		Epoch: service.EpochSpec{Epsilon: 0.01, IntervalMS: 1},
	})
	// Ingest, then Close: the acked events stay.
	w := do(t, s, "POST", "/v1/datasets/"+dsID+"/events", service.EventsRequest{Events: appendEvents(1, 2, 3)})
	if w.Code != http.StatusAccepted {
		t.Fatalf("events: status %d body %s", w.Code, w.Body.String())
	}
	s.Close()
	s.Close() // idempotent
	ds := decode[service.DatasetResponse](t, do(t, s, "GET", "/v1/datasets/"+dsID, nil))
	if ds.Rows != 3 {
		t.Fatalf("rows after Close = %d, want 3 (an acked event was lost)", ds.Rows)
	}
	wantError(t, do(t, s, "POST", "/v1/datasets/"+dsID+"/events", service.EventsRequest{Events: appendEvents(4)}),
		http.StatusBadRequest, service.CodeBadRequest)
	wantError(t, do(t, s, "POST", "/v1/streams", service.CreateStreamRequest{
		PolicyID: polID, DatasetID: dsID, Budget: 1, Epoch: service.EpochSpec{Epsilon: 0.1},
	}), http.StatusBadRequest, service.CodeBadRequest)
	reads := decode[service.ListStreamsResponse](t, do(t, s, "GET", "/v1/streams", nil))
	if len(reads.Streams) != 1 {
		t.Fatalf("streams = %d, want 1 (reads still served)", len(reads.Streams))
	}
}

// TestServerStreamHammer interleaves, under -race, everything the streaming
// server can do to one dataset at once: concurrent event batches (appends,
// and batches that swap-delete), manual epoch closes, session releases over
// the same dataset, and list/status polls.
func TestServerStreamHammer(t *testing.T) {
	leak.Check(t)
	s, _ := newTestServer(t)
	defer s.Close()
	polID, dsID := streamFixtureIDs(t, s)
	stID := mustCreateStream(t, s, service.CreateStreamRequest{
		PolicyID: polID, DatasetID: dsID, Budget: 1e9,
		Epoch: service.EpochSpec{Epsilon: 0.01},
		Kinds: []string{"histogram", "cumulative"},
	})
	sessID := mustCreateSession(t, s, service.CreateSessionRequest{PolicyID: polID, Budget: 1e9})

	tbl := s.router.Core(0).DatasetTable(dsID)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := func(format string, args ...any) {
		select {
		case <-stop:
		default:
			t.Errorf(format, args...)
		}
	}
	for w := 0; w < 3; w++ { // event producers
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := do(t, s, "POST", "/v1/datasets/"+dsID+"/events", service.EventsRequest{
					Events: appendEvents((i*3+w)%64, (i*7)%64),
				})
				if rec.Code != http.StatusAccepted {
					fail("events: status %d body %s", rec.Code, rec.Body.String())
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // session releases racing ingestion
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := do(t, s, "POST", "/v1/sessions/"+sessID+"/releases/histogram",
				service.HistogramRequest{DatasetID: dsID, Epsilon: 0.01})
			if rec.Code != http.StatusOK {
				fail("session release: status %d body %s", rec.Code, rec.Body.String())
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // an append and a swap-delete per batch, on the table
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			res, err := tbl.Ingest([]blowfish.StreamEvent{{Op: "append", Row: []int{i % 64}}, {Op: "delete", ID: 0}})
			if err != nil || res.Rejected != 0 {
				fail("table ingest: %+v %v", res, err)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	wg.Add(1)
	go func() { // pollers
		defer wg.Done()
		var since uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := do(t, s, "GET", fmt.Sprintf("/v1/streams/%s/releases?since=%d", stID, since), nil)
			if rec.Code != http.StatusOK {
				fail("poll: status %d body %s", rec.Code, rec.Body.String())
				return
			}
			since = decode[service.StreamReleasesResponse](t, rec).NextSince
			do(t, s, "GET", "/v1/datasets", nil)
			do(t, s, "GET", "/v1/streams", nil)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for i := 0; i < 25; i++ {
		rec := do(t, s, "POST", "/v1/streams/"+stID+"/epochs", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("epoch close %d: status %d body %s", i, rec.Code, rec.Body.String())
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// After the storm, compare the maintained index against a from-scratch
	// rebuild: a near-noiseless release (enormous ε) through the server
	// must match the true histogram, which catches any count the
	// interleaving tore.
	tbl.RLock()
	want, err := tbl.Dataset().Histogram()
	tbl.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	checkID := mustCreateSession(t, s, service.CreateSessionRequest{PolicyID: polID, Budget: 1e12})
	rec := do(t, s, "POST", "/v1/sessions/"+checkID+"/releases/histogram",
		service.HistogramRequest{DatasetID: dsID, Epsilon: 1e9})
	if rec.Code != http.StatusOK {
		t.Fatalf("check release: status %d body %s", rec.Code, rec.Body.String())
	}
	got := decode[service.HistogramResponse](t, rec).Counts
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.5 {
			t.Fatalf("hist[%d] = %v, want %v (index torn)", i, got[i], want[i])
		}
	}
}
