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
	w := doRaw(t, s, "POST", "/v1/datasets/"+dsID+"/events", codec.ContentType, frame)
	if w.Code != http.StatusAccepted {
		t.Fatalf("binary events: status %d body %s", w.Code, w.Body.String())
	}
	resp := decode[service.EventsResponse](t, w)
	if resp.Accepted != 4 || resp.FirstSeq != 1 || resp.LastSeq != 4 || resp.Rejected != 0 {
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
	w = doRaw(t, s, "POST", "/v1/datasets/"+dsID+"/events", codec.ContentType, append(append([]byte(nil), frame...), frame2...))
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

// TestEventsBatchCap pins the per-request cap, service.MaxEvents: a batch
// one event over it is a 400 naming the cap in every body encoding, and a
// batch of exactly the cap is applied whole.
func TestEventsBatchCap(t *testing.T) {
	s, _ := newTestServer(t)
	defer s.Close()
	_, dsID := streamFixtureIDs(t, s)
	path := "/v1/datasets/" + dsID + "/events"
	bodies := func(n int) map[string][]byte {
		evs := make([]blowfish.StreamEvent, n)
		var js, nd bytes.Buffer
		js.WriteString(`{"events":[`)
		for i := range evs {
			v := i % 64
			evs[i] = blowfish.StreamEvent{Op: "append", Row: []int{v}}
			if i > 0 {
				js.WriteByte(',')
			}
			fmt.Fprintf(&js, `{"op":"append","row":[%d]}`, v)
			fmt.Fprintf(&nd, `{"op":"append","row":[%d]}`+"\n", v)
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
	capRE := regexp.MustCompile(`\b` + strconv.Itoa(service.MaxEvents) + `\b`)
	for ct, body := range bodies(service.MaxEvents + 1) {
		w := doRaw(t, s, "POST", path, ct, body)
		wantError(t, w, http.StatusBadRequest, service.CodeBadRequest)
		if msg := decode[errorEnvelope](t, w).Error.Message; !capRE.MatchString(msg) {
			t.Errorf("%s: message %q does not name the cap %d", ct, msg, service.MaxEvents)
		}
	}
	if ds := decode[service.DatasetResponse](t, do(t, s, "GET", "/v1/datasets/"+dsID, nil)); ds.Rows != 0 {
		t.Fatalf("rows = %d after the refused batches, want 0", ds.Rows)
	}
	rows := 0
	for ct, body := range bodies(service.MaxEvents) {
		w := doRaw(t, s, "POST", path, ct, body)
		if w.Code != http.StatusAccepted {
			t.Fatalf("%s: %d-event batch: status %d body %s", ct, service.MaxEvents, w.Code, w.Body.String())
		}
		rows += service.MaxEvents
		if got := decode[service.EventsResponse](t, w); got.Accepted != service.MaxEvents || got.LastSeq != uint64(rows) {
			t.Fatalf("%s: events response = %+v", ct, got)
		}
	}
	if ds := decode[service.DatasetResponse](t, do(t, s, "GET", "/v1/datasets/"+dsID, nil)); ds.Rows != rows {
		t.Fatalf("rows = %d, want %d", ds.Rows, rows)
	}
}

// TestEventsBackpressureHammer drives one dataset from concurrent producers
// while epochs close (run under -race in CI). The backpressure is the
// request itself: its handler applies the batch before the 202, so no
// producer can get ahead of the table. With no flush anywhere, each close
// counts at least every event acked before it began and at most every
// event sent by the time it returned, and at the end the rows and one more
// close's events equal the acked appends exactly.
func TestEventsBackpressureHammer(t *testing.T) {
	leak.Check(t)
	s, _ := newTestServer(t)
	defer s.Close()
	polID, dsID := streamFixtureIDs(t, s)
	stID := mustCreateStream(t, s, service.CreateStreamRequest{
		PolicyID: polID, DatasetID: dsID, Budget: 1e9,
		Epoch: service.EpochSpec{Epsilon: 0.01},
	})
	frame, err := codec.AppendFrame(nil, []blowfish.StreamEvent{
		{Op: "append", Row: []int{1}},
		{Op: "append", Row: []int{2}},
		{Op: "append", Row: []int{3}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	closeEpoch := func() service.EpochReleaseWire {
		w := do(t, s, "POST", "/v1/streams/"+stID+"/epochs", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("epoch close: status %d body %s", w.Code, w.Body.String())
		}
		return decode[service.EpochReleaseWire](t, w)
	}

	var sent, acked atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				sent.Add(3)
				w := doRaw(t, s, "POST", "/v1/datasets/"+dsID+"/events", codec.ContentType, frame)
				if w.Code != http.StatusAccepted {
					t.Errorf("events: status %d body %s", w.Code, w.Body.String())
					return
				}
				acked.Add(3)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	closes := 0
	for running := true; running; closes++ {
		select {
		case <-done:
			running = false
		default:
		}
		before := acked.Load()
		rel := closeEpoch()
		if after := sent.Load(); int64(rel.Events) < before || int64(rel.Events) > after {
			t.Fatalf("close %d counts %d events, want between %d acked before it and %d sent by its return",
				closes, rel.Events, before, after)
		}
	}
	if t.Failed() {
		return
	}
	want := acked.Load()
	if ds := decode[service.DatasetResponse](t, do(t, s, "GET", "/v1/datasets/"+dsID, nil)); int64(ds.Rows) != want {
		t.Fatalf("rows = %d, want %d acked appends", ds.Rows, want)
	}
	if rel := closeEpoch(); int64(rel.Events) != want || int64(rel.Rows) != want {
		t.Fatalf("final close counts %d events and %d rows, want %d acked appends", rel.Events, rel.Rows, want)
	}
	t.Logf("acked %d events across %d epoch closes", want, closes)
}
