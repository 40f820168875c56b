package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blowfish/internal/service"
)

// wantEncoded fails unless got is byte for byte what json.Encoder writes
// for v, which is what every response body was before the front shared
// release encodes.
func wantEncoded(t *testing.T, what string, w *httptest.ResponseRecorder, v any) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatalf("%s: encode: %v", what, err)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q", what, ct)
	}
	if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
		t.Fatalf("%s: body differs from json.Encoder\n got %.300q\nwant %.300q", what, w.Body.Bytes(), want.Bytes())
	}
}

// TestEpochReleaseBodiesByteIdentical pins the close reply and the poll
// reply to json.Encoder's output for the service's own response, for every
// release shape and poll length, while the front shares release bodies.
func TestEpochReleaseBodiesByteIdentical(t *testing.T) {
	cases := []struct {
		name  string
		graph service.GraphSpec
		req   service.CreateStreamRequest
	}{
		{name: "histogram", graph: service.GraphSpec{Kind: "l1", Theta: 4}},
		{name: "histogram+cumulative", graph: service.GraphSpec{Kind: "l1", Theta: 4},
			req: service.CreateStreamRequest{Kinds: []string{"histogram", "cumulative"}}},
		{name: "range", graph: service.GraphSpec{Kind: "l1", Theta: 4},
			req: service.CreateStreamRequest{Kinds: []string{"range"}, RangeQueries: []service.RangeQuery{{Lo: 0, Hi: 31}, {Lo: 10, Hi: 20}, {Lo: 63, Hi: 63}}}},
		{name: "partition", graph: service.GraphSpec{Kind: "partition", Widths: []int{8}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newTestServer(t)
			defer s.Close()
			polID := mustCreatePolicy(t, s, service.CreatePolicyRequest{Domain: lineDomain, Graph: tc.graph})
			dsID := mustCreateDataset(t, s, service.CreateDatasetRequest{PolicyID: polID, Rows: lineRows(200, 64)})
			req := tc.req
			req.PolicyID, req.DatasetID, req.Budget = polID, dsID, 10
			req.Epoch = service.EpochSpec{Epsilon: 0.5}
			stID := mustCreateStream(t, s, req)
			base := "/v1/streams/" + stID

			poll := func(since uint64) {
				t.Helper()
				w := do(t, s, "GET", fmt.Sprintf("%s/releases?since=%d", base, since), nil)
				if w.Code != http.StatusOK {
					t.Fatalf("poll since=%d: status %d body %s", since, w.Code, w.Body.String())
				}
				resp, err := s.router.StreamReleases(context.Background(), stID, since, 0)
				if err != nil {
					t.Fatal(err)
				}
				wantEncoded(t, fmt.Sprintf("poll since=%d (%d releases)", since, len(resp.Releases)), w, resp)
			}

			poll(0) // nothing published yet: an empty list, not null
			const epochs = 3
			for seq := uint64(1); seq <= epochs; seq++ {
				postEvents(t, s, dsID, appendEvents(int(seq), int(2*seq)))
				w := do(t, s, "POST", base+"/epochs", nil)
				if w.Code != http.StatusOK {
					t.Fatalf("close %d: status %d body %s", seq, w.Code, w.Body.String())
				}
				// The seq comes from the close order, not from the body, so
				// a body shared across seqs cannot vouch for itself.
				resp, err := s.router.StreamReleases(context.Background(), stID, seq-1, 0)
				if err != nil || len(resp.Releases) != 1 {
					t.Fatalf("service releases past %d: %+v, %v", seq-1, resp, err)
				}
				wantEncoded(t, fmt.Sprintf("close %d", seq), w, resp.Releases[0])
				poll(seq - 1) // the newest alone, shared with the close
			}
			poll(epochs) // caught up: empty
			poll(1)      // two releases: one older, then the newest
			poll(0)      // a full catch-up
		})
	}
}

// TestEpochReleaseFanout parks K long-polls, closes one epoch, and checks
// that the close reply and every poll carry the same release bytes from a
// single encode.
func TestEpochReleaseFanout(t *testing.T) {
	const k = 4
	s, _ := newTestServer(t)
	defer s.Close()
	var encodes atomic.Int64
	s.onReleaseEncode = func() { encodes.Add(1) }
	polID, dsID := streamFixtureIDs(t, s)
	stID := mustCreateStream(t, s, service.CreateStreamRequest{
		PolicyID: polID, DatasetID: dsID, Budget: 1, Kinds: []string{"histogram", "cumulative"},
		Epoch: service.EpochSpec{Epsilon: 0.1},
	})
	postEvents(t, s, dsID, appendEvents(1, 2, 3))

	polls := make([]*httptest.ResponseRecorder, k)
	var wg sync.WaitGroup
	for i := range polls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			polls[i] = do(t, s, "GET", "/v1/streams/"+stID+"/releases?since=0&wait_ms=10000", nil)
		}()
	}
	st, _ := s.router.Core(0).StreamHandles(stID)
	for deadline := time.Now().Add(10 * time.Second); st.Status().Waiters < k; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d long-polls parked", st.Status().Waiters, k)
		}
		time.Sleep(time.Millisecond)
	}
	w := do(t, s, "POST", "/v1/streams/"+stID+"/epochs", nil)
	wg.Wait()
	if w.Code != http.StatusOK {
		t.Fatalf("close: status %d body %s", w.Code, w.Body.String())
	}
	release := strings.TrimSuffix(w.Body.String(), "\n")
	want := `{"releases":[` + release + `],"next_since":1}` + "\n"
	for i, p := range polls {
		if p.Code != http.StatusOK || p.Body.String() != want {
			t.Fatalf("poll %d: status %d body %.200q, want the close reply's release %.200q", i, p.Code, p.Body.String(), want)
		}
	}
	if n := encodes.Load(); n != 1 {
		t.Fatalf("release encoded %d times for %d responses, want once", n, k+1)
	}
}

// TestEpochReleaseBodyDroppedOnDelete checks that the front keeps no
// release body for a deleted stream, including one a request fetched
// before the delete and encodes after it.
func TestEpochReleaseBodyDroppedOnDelete(t *testing.T) {
	s, _ := newTestServer(t)
	defer s.Close()
	polID, dsID := streamFixtureIDs(t, s)
	stID := mustCreateStream(t, s, service.CreateStreamRequest{
		PolicyID: polID, DatasetID: dsID, Budget: 1, Epoch: service.EpochSpec{Epsilon: 0.1},
	})
	postEvents(t, s, dsID, appendEvents(1))
	w := do(t, s, "POST", "/v1/streams/"+stID+"/epochs", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("close: status %d body %s", w.Code, w.Body.String())
	}
	if _, ok := s.releases.Load(stID); !ok {
		t.Fatal("no shared body after a close")
	}
	late := decode[service.EpochReleaseWire](t, w)
	if w := do(t, s, "DELETE", "/v1/streams/"+stID, nil); w.Code != http.StatusNoContent {
		t.Fatalf("delete: status %d body %s", w.Code, w.Body.String())
	}
	if _, ok := s.releases.Load(stID); ok {
		t.Fatal("DELETE kept the stream's shared body")
	}
	if _, err := s.releaseJSON(stID, &late); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.releases.Load(stID); ok {
		t.Fatal("a release encoded after DELETE left a body behind")
	}
}
