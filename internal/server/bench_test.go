package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"blowfish/internal/service"
)

// benchFixture stands up a server with one policy, dataset and an
// effectively unlimited session budget so release benches never exhaust.
func benchFixture(b *testing.B, graph service.GraphSpec) (*Server, string, string) {
	b.Helper()
	s := newServer(b, service.Config{Seed: 1})
	post := func(path string, body any) []byte {
		b.Helper()
		raw, _ := json.Marshal(body)
		req := httptest.NewRequest("POST", path, bytes.NewReader(raw))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusCreated {
			b.Fatalf("POST %s: %d %s", path, w.Code, w.Body.String())
		}
		return w.Body.Bytes()
	}
	var pol service.PolicyResponse
	_ = json.Unmarshal(post("/v1/policies", service.CreatePolicyRequest{Domain: []service.AttrSpec{{Name: "v", Size: 1024}}, Graph: graph}), &pol)
	rows := make([][]int, 5000)
	for i := range rows {
		rows[i] = []int{i % 1024}
	}
	var ds service.DatasetResponse
	_ = json.Unmarshal(post("/v1/datasets", service.CreateDatasetRequest{PolicyID: pol.ID, Rows: rows}), &ds)
	var sess service.SessionResponse
	_ = json.Unmarshal(post("/v1/sessions", service.CreateSessionRequest{PolicyID: pol.ID, Budget: 1e12}), &sess)
	return s, ds.ID, sess.ID
}

// release issues one in-process release request, failing the bench on a
// non-200.
func release(b *testing.B, s *Server, path string, body []byte) {
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("release: %d %s", w.Code, w.Body.String())
	}
}

func BenchmarkServerHistogramRelease(b *testing.B) {
	s, dsID, sessID := benchFixture(b, service.GraphSpec{Kind: "l1", Theta: 16})
	body, _ := json.Marshal(service.HistogramRequest{DatasetID: dsID, Epsilon: 0.01})
	path := "/v1/sessions/" + sessID + "/releases/histogram"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		release(b, s, path, body)
	}
}

func BenchmarkServerHistogramReleaseParallel(b *testing.B) {
	s, dsID, sessID := benchFixture(b, service.GraphSpec{Kind: "l1", Theta: 16})
	body, _ := json.Marshal(service.HistogramRequest{DatasetID: dsID, Epsilon: 0.01})
	path := "/v1/sessions/" + sessID + "/releases/histogram"
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			release(b, s, path, body)
		}
	})
}

func BenchmarkServerRangeRelease(b *testing.B) {
	s, dsID, sessID := benchFixture(b, service.GraphSpec{Kind: "l1", Theta: 16})
	body, _ := json.Marshal(service.RangeRequest{
		DatasetID: dsID, Epsilon: 0.01,
		Queries: []service.RangeQuery{{Lo: 0, Hi: 511}, {Lo: 100, Hi: 200}, {Lo: 900, Hi: 1023}},
	})
	path := "/v1/sessions/" + sessID + "/releases/range"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		release(b, s, path, body)
	}
}

func BenchmarkServerRangeReleaseParallel(b *testing.B) {
	s, dsID, sessID := benchFixture(b, service.GraphSpec{Kind: "l1", Theta: 16})
	body, _ := json.Marshal(service.RangeRequest{
		DatasetID: dsID, Epsilon: 0.01,
		Queries: []service.RangeQuery{{Lo: 0, Hi: 511}, {Lo: 100, Hi: 200}, {Lo: 900, Hi: 1023}},
	})
	path := "/v1/sessions/" + sessID + "/releases/range"
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			release(b, s, path, body)
		}
	})
}

// BenchmarkServerParallelSessions measures the fully concurrent shape:
// every goroutine owns its own session, so noise generation proceeds in
// parallel instead of serializing on one session's source lock.
func BenchmarkServerParallelSessions(b *testing.B) {
	s, dsID, _ := benchFixture(b, service.GraphSpec{Kind: "l1", Theta: 16})
	body, _ := json.Marshal(service.HistogramRequest{DatasetID: dsID, Epsilon: 0.01})
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		raw, _ := json.Marshal(service.CreateSessionRequest{PolicyID: "pol-1", Budget: 1e12})
		req := httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(raw))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusCreated {
			b.Fatalf("create session: %d %s", w.Code, w.Body.String())
		}
		var sess service.SessionResponse
		_ = json.Unmarshal(w.Body.Bytes(), &sess)
		path := "/v1/sessions/" + sess.ID + "/releases/histogram"
		for pb.Next() {
			release(b, s, path, body)
		}
	})
}

// BenchmarkServerEpochFanout measures the front's stream release path at
// loadbench's ingest-stream shape: a histogram+cumulative stream over the
// 1024-value l1/θ=16 policy. One op is one epoch close followed by
// epochFanout plain polls that each return that release, so the front
// serves every release epochFanout+1 times.
func BenchmarkServerEpochFanout(b *testing.B) {
	const epochFanout = 4
	s, dsID, _ := benchFixture(b, service.GraphSpec{Kind: "l1", Theta: 16})
	raw, _ := json.Marshal(service.CreateStreamRequest{
		PolicyID: "pol-1", DatasetID: dsID, Budget: 1e12,
		Epoch: service.EpochSpec{Epsilon: 0.01}, Kinds: []string{"histogram", "cumulative"},
	})
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/streams", bytes.NewReader(raw)))
	if w.Code != http.StatusCreated {
		b.Fatalf("create stream: %d %s", w.Code, w.Body.String())
	}
	var st service.StreamResponse
	_ = json.Unmarshal(w.Body.Bytes(), &st)
	closePath := "/v1/streams/" + st.ID + "/epochs"
	b.ReportAllocs()
	b.ResetTimer()
	for seq := 1; seq <= b.N; seq++ {
		release(b, s, closePath, nil)
		poll := fmt.Sprintf("/v1/streams/%s/releases?since=%d", st.ID, seq-1)
		for range epochFanout {
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest("GET", poll, nil))
			if w.Code != http.StatusOK {
				b.Fatalf("poll: %d %s", w.Code, w.Body.String())
			}
		}
	}
}
