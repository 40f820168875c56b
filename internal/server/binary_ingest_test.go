package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blowfish"
	"blowfish/internal/codec"
	"blowfish/internal/leak"
	"blowfish/internal/service"
)

// doRaw issues one in-process request with an explicit body and content
// type — the binary-batch and NDJSON tests cannot use the JSON helper.
func doRaw(t testing.TB, s *Server, method, path, contentType string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// TestBinaryBatchIngest walks the binary columnar frame end to end: encode
// a batch, POST it with the negotiated content type, and verify the events
// landed exactly as their JSON-envelope equivalents would.
func TestBinaryBatchIngest(t *testing.T) {
	s, _ := newTestServer(t)
	defer s.Close()
	_, dsID := streamFixtureIDs(t, s)

	events := []blowfish.StreamEvent{
		{Op: "append", Row: []int{5}},
		{Op: "append", Row: []int{9}},
		{Op: "upsert", ID: 0, Row: []int{7}},
		{Op: "delete", ID: 1},
	}
	frame, err := codec.AppendFrame(nil, events, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := doRaw(t, s, "POST", "/v1/datasets/"+dsID+"/events?wait=1", codec.ContentType, frame)
	if w.Code != http.StatusAccepted {
		t.Fatalf("binary events: status %d body %s", w.Code, w.Body.String())
	}
	resp := decode[service.EventsResponse](t, w)
	if resp.Accepted != 4 || resp.FirstSeq != 1 || resp.LastSeq != 4 || resp.ProcessedSeq != 4 {
		t.Fatalf("events response = %+v", resp)
	}
	ds := decode[service.DatasetResponse](t, do(t, s, "GET", "/v1/datasets/"+dsID, nil))
	if ds.Rows != 1 { // 2 appends, 1 overwrite, 1 delete
		t.Fatalf("rows = %d, want 1", ds.Rows)
	}

	// Two frames in one body concatenate.
	frame2, err := codec.AppendFrame(nil, []blowfish.StreamEvent{{Op: "append", Row: []int{3}}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	w = doRaw(t, s, "POST", "/v1/datasets/"+dsID+"/events?wait=1", codec.ContentType, append(append([]byte(nil), frame...), frame2...))
	if w.Code != http.StatusAccepted {
		t.Fatalf("two frames: status %d body %s", w.Code, w.Body.String())
	}
	if got := decode[service.EventsResponse](t, w); got.Accepted != 5 {
		t.Fatalf("two frames accepted = %d, want 5", got.Accepted)
	}

	// Corruption and shape errors are structured bad requests.
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0x40
	wantError(t, doRaw(t, s, "POST", "/v1/datasets/"+dsID+"/events", codec.ContentType, bad),
		http.StatusBadRequest, service.CodeBadRequest)
	twoCol, err := codec.AppendFrame(nil, []blowfish.StreamEvent{{Op: "append", Row: []int{1, 2}}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantError(t, doRaw(t, s, "POST", "/v1/datasets/"+dsID+"/events", codec.ContentType, twoCol),
		http.StatusBadRequest, service.CodeBadRequest)
	empty, err := codec.AppendFrame(nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantError(t, doRaw(t, s, "POST", "/v1/datasets/"+dsID+"/events", codec.ContentType, empty),
		http.StatusBadRequest, service.CodeBadRequest)

	// A domain-invalid value decodes fine but fails validation at submit.
	over, err := codec.AppendFrame(nil, []blowfish.StreamEvent{{Op: "append", Row: []int{64}}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantError(t, doRaw(t, s, "POST", "/v1/datasets/"+dsID+"/events", codec.ContentType, over),
		http.StatusBadRequest, service.CodeBadRequest)
}

// backpressureServer builds a server whose ingest queue is tiny, so tests
// can fill it deterministically.
func backpressureServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := newServer(t, service.Config{Seed: 42, Ingest: blowfish.StreamIngestConfig{
		QueueDepth: 4,
		BatchSize:  4,
	}})
	t.Cleanup(s.Close)
	_, dsID := streamFixtureIDs(t, s)
	return s, dsID
}

// TestEventsBackpressure pins the regression contract of the bounded
// ingest queue: once the writer stalls and the queue fills, an events POST
// is rejected whole with the structured queue_full error and a Retry-After
// header — and every batch that was acked with 202 is applied, none
// dropped, once the writer resumes.
func TestEventsBackpressure(t *testing.T) {
	s, dsID := backpressureServer(t)

	tbl := s.router.Core(0).DatasetTable(dsID)

	// Wedge the single writer: applying a batch needs the table's write
	// lock, so a held read lock stalls it with the queue intact.
	tbl.RLock()
	wedged := true
	defer func() {
		if wedged {
			tbl.RUnlock()
		}
	}()

	accepted := 0
	var rejected *httptest.ResponseRecorder
	for i := 0; i < 100; i++ {
		w := doRawWithin(t, 5*time.Second, s, "POST", "/v1/datasets/"+dsID+"/events", "application/x-ndjson",
			[]byte(`{"op":"append","row":[1]}`+"\n"+`{"op":"append","row":[2]}`+"\n"))
		if w.Code == http.StatusAccepted {
			accepted += 2
			continue
		}
		rejected = w
		break
	}
	if rejected == nil {
		t.Fatal("queue never filled")
	}
	wantError(t, rejected, http.StatusTooManyRequests, service.CodeQueueFull)
	if ra := rejected.Header().Get("Retry-After"); ra == "" {
		t.Fatal("queue_full response lacks Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer of seconds", ra)
	}

	// The rejection enqueued nothing: resume the writer, flush via a
	// waiting post, and the dataset must hold exactly the acked events.
	tbl.RUnlock()
	wedged = false
	var w *httptest.ResponseRecorder
	for deadline := time.Now().Add(5 * time.Second); ; {
		w = doRaw(t, s, "POST", "/v1/datasets/"+dsID+"/events?wait=1", "application/x-ndjson",
			[]byte(`{"op":"append","row":[3]}`+"\n"))
		if w.Code != http.StatusTooManyRequests || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond) // queue still draining; honor the backoff
	}
	if w.Code != http.StatusAccepted {
		t.Fatalf("post-drain events: status %d body %s", w.Code, w.Body.String())
	}
	accepted++
	ds := decode[service.DatasetResponse](t, do(t, s, "GET", "/v1/datasets/"+dsID, nil))
	if ds.Rows != accepted {
		t.Fatalf("rows = %d, want %d (an acked event was dropped)", ds.Rows, accepted)
	}
}

// TestEventsBatchCap pins the per-request cap: it is the ingest queue
// depth, because TrySubmit admits a batch only whole. A batch one event
// larger than the queue is a 400 naming the cap in every body encoding —
// never a 429 a client would retry forever — and a batch of exactly the
// queue depth is accepted on an idle queue.
func TestEventsBatchCap(t *testing.T) {
	s, dsID := backpressureServer(t)
	path := "/v1/datasets/" + dsID + "/events?wait=1"
	bodies := func(n int) map[string][]byte {
		evs := make([]blowfish.StreamEvent, n)
		var js, nd bytes.Buffer
		js.WriteString(`{"wait":true,"events":[`)
		for i := range evs {
			evs[i] = blowfish.StreamEvent{Op: "append", Row: []int{i}}
			if i > 0 {
				js.WriteByte(',')
			}
			fmt.Fprintf(&js, `{"op":"append","row":[%d]}`, i)
			fmt.Fprintf(&nd, `{"op":"append","row":[%d]}`+"\n", i)
		}
		js.WriteString("]}")
		frame, err := codec.AppendFrame(nil, evs, 1)
		if err != nil {
			t.Fatal(err)
		}
		return map[string][]byte{
			"application/json":     js.Bytes(),
			"application/x-ndjson": nd.Bytes(),
			codec.ContentType:      frame,
		}
	}
	capRE := regexp.MustCompile(`\b4\b`)
	for ct, body := range bodies(5) {
		w := doRaw(t, s, "POST", path, ct, body)
		wantError(t, w, http.StatusBadRequest, service.CodeBadRequest)
		if ra := w.Header().Get("Retry-After"); ra != "" {
			t.Errorf("%s: oversized batch carries Retry-After %q", ct, ra)
		}
		if msg := decode[errorEnvelope](t, w).Error.Message; !capRE.MatchString(msg) {
			t.Errorf("%s: message %q does not name the cap 4", ct, msg)
		}
	}
	rows := 0
	for ct, body := range bodies(4) {
		w := doRaw(t, s, "POST", path, ct, body)
		if w.Code != http.StatusAccepted {
			t.Fatalf("%s: 4-event batch: status %d body %s", ct, w.Code, w.Body.String())
		}
		rows += 4
		if got := decode[service.EventsResponse](t, w); got.Accepted != 4 || got.ProcessedSeq != got.LastSeq {
			t.Fatalf("%s: events response = %+v", ct, got)
		}
	}
	if ds := decode[service.DatasetResponse](t, do(t, s, "GET", "/v1/datasets/"+dsID, nil)); ds.Rows != rows {
		t.Fatalf("rows = %d, want %d", ds.Rows, rows)
	}
}

// doRawWithin is doRaw on its own goroutine, failing the test if the
// request has not returned within d. A handler that queued for a table lock
// the test itself holds would otherwise hang the run until the package
// timeout.
func doRawWithin(t *testing.T, d time.Duration, s *Server, method, path, contentType string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- doRaw(t, s, method, path, contentType, body) }()
	select {
	case w := <-done:
		return w
	case <-time.After(d):
		t.Fatalf("%s %s blocked for %v", method, path, d)
		return nil
	}
}

// TestEventsBackpressureHammer drives the tiny queue from concurrent
// producers (run under -race in CI): each POST either acks whole or is
// rejected whole with queue_full, and the dataset ends with exactly the
// acked rows.
func TestEventsBackpressureHammer(t *testing.T) {
	leak.Check(t)
	s, dsID := backpressureServer(t)

	frame, err := codec.AppendFrame(nil, []blowfish.StreamEvent{
		{Op: "append", Row: []int{1}},
		{Op: "append", Row: []int{2}},
		{Op: "append", Row: []int{3}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}

	var accepted, rejectedCount atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				w := doRaw(t, s, "POST", "/v1/datasets/"+dsID+"/events", codec.ContentType, frame)
				switch w.Code {
				case http.StatusAccepted:
					accepted.Add(3)
				case http.StatusTooManyRequests:
					rejectedCount.Add(1)
					if w.Header().Get("Retry-After") == "" {
						t.Error("queue_full response lacks Retry-After")
						return
					}
					time.Sleep(100 * time.Microsecond)
				default:
					t.Errorf("events: status %d body %s", w.Code, w.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Flush and count: rows must equal acked appends exactly.
	var w *httptest.ResponseRecorder
	for deadline := time.Now().Add(5 * time.Second); ; {
		w = doRaw(t, s, "POST", "/v1/datasets/"+dsID+"/events?wait=1", codec.ContentType, frame)
		if w.Code != http.StatusTooManyRequests || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if w.Code != http.StatusAccepted {
		t.Fatalf("flush post: status %d body %s", w.Code, w.Body.String())
	}
	accepted.Add(3)
	ds := decode[service.DatasetResponse](t, do(t, s, "GET", "/v1/datasets/"+dsID, nil))
	if int64(ds.Rows) != accepted.Load() {
		t.Fatalf("rows = %d, want %d acked appends (rejected batches: %d)",
			ds.Rows, accepted.Load(), rejectedCount.Load())
	}
	t.Logf("accepted %d events, rejected %d batches", accepted.Load(), rejectedCount.Load())
}
