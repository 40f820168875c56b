package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"blowfish/internal/service"
	"blowfish/internal/shard"
)

// testClock is a fake clock advanced manually by expiry tests.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// openServer builds a front the way blowfish-serve does at its default
// -shards 1: a 1-shard router behind New. Tests reach the white-box
// accessors through s.router.Core(0).
func openServer(cfg service.Config) (*Server, error) {
	r, err := shard.Open(cfg, 1)
	if err != nil {
		return nil, err
	}
	return New(r), nil
}

// newServer is openServer for configs that must open.
func newServer(tb testing.TB, cfg service.Config) *Server {
	tb.Helper()
	s, err := openServer(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func newTestServer(t *testing.T) (*Server, *testClock) {
	t.Helper()
	clk := &testClock{now: time.Unix(1700000000, 0)}
	return newServer(t, service.Config{Seed: 42, SessionTTL: time.Hour, Now: clk.Now}), clk
}

// do issues one in-process request and returns the recorder.
func do(t *testing.T, s *Server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// decode parses a response body into out, failing the test on error.
func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var out T
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("decode response %q: %v", w.Body.String(), err)
	}
	return out
}

// wantError asserts a structured error with the given status and code.
func wantError(t *testing.T, w *httptest.ResponseRecorder, status int, code string) {
	t.Helper()
	if w.Code != status {
		t.Fatalf("status = %d, want %d (body %s)", w.Code, status, w.Body.String())
	}
	env := decode[errorEnvelope](t, w)
	if env.Error.Code != code {
		t.Fatalf("error code = %q, want %q (message %q)", env.Error.Code, code, env.Error.Message)
	}
}

// mustCreatePolicy registers a policy and returns its id.
func mustCreatePolicy(t *testing.T, s *Server, req service.CreatePolicyRequest) string {
	t.Helper()
	w := do(t, s, "POST", "/v1/policies", req)
	if w.Code != http.StatusCreated {
		t.Fatalf("create policy: status %d body %s", w.Code, w.Body.String())
	}
	return decode[service.PolicyResponse](t, w).ID
}

// mustCreateDataset uploads rows over an inline domain and returns the id.
func mustCreateDataset(t *testing.T, s *Server, req service.CreateDatasetRequest) string {
	t.Helper()
	w := do(t, s, "POST", "/v1/datasets", req)
	if w.Code != http.StatusCreated {
		t.Fatalf("create dataset: status %d body %s", w.Code, w.Body.String())
	}
	return decode[service.DatasetResponse](t, w).ID
}

// mustCreateSession opens a session and returns its id.
func mustCreateSession(t *testing.T, s *Server, req service.CreateSessionRequest) string {
	t.Helper()
	w := do(t, s, "POST", "/v1/sessions", req)
	if w.Code != http.StatusCreated {
		t.Fatalf("create session: status %d body %s", w.Code, w.Body.String())
	}
	return decode[service.SessionResponse](t, w).ID
}

// lineRows returns n rows over a 1-D domain, values cycling mod size.
func lineRows(n, size int) [][]int {
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = []int{i % size}
	}
	return rows
}

var lineDomain = []service.AttrSpec{{Name: "v", Size: 64}}

func TestCreatePolicy(t *testing.T) {
	tests := []struct {
		name     string
		req      service.CreatePolicyRequest
		status   int
		code     string // expected error code when status != 201
		wantSens float64
	}{
		{
			name:     "full domain",
			req:      service.CreatePolicyRequest{Domain: lineDomain, Graph: service.GraphSpec{Kind: "full"}},
			status:   http.StatusCreated,
			wantSens: 2,
		},
		{
			name:     "attribute secrets",
			req:      service.CreatePolicyRequest{Domain: []service.AttrSpec{{Name: "a", Size: 4}, {Name: "b", Size: 8}}, Graph: service.GraphSpec{Kind: "attr"}},
			status:   http.StatusCreated,
			wantSens: 2,
		},
		{
			name:     "l1 threshold",
			req:      service.CreatePolicyRequest{Domain: lineDomain, Graph: service.GraphSpec{Kind: "l1", Theta: 8}},
			status:   http.StatusCreated,
			wantSens: 2,
		},
		{
			name:     "linf threshold",
			req:      service.CreatePolicyRequest{Domain: []service.AttrSpec{{Name: "x", Size: 16}, {Name: "y", Size: 16}}, Graph: service.GraphSpec{Kind: "linf", Theta: 2}},
			status:   http.StatusCreated,
			wantSens: 2,
		},
		{
			name:     "line graph",
			req:      service.CreatePolicyRequest{Domain: lineDomain, Graph: service.GraphSpec{Kind: "line"}},
			status:   http.StatusCreated,
			wantSens: 2,
		},
		{
			name:     "partition by blocks",
			req:      service.CreatePolicyRequest{Domain: []service.AttrSpec{{Name: "x", Size: 16}, {Name: "y", Size: 16}}, Graph: service.GraphSpec{Kind: "partition", Blocks: 16}},
			status:   http.StatusCreated,
			wantSens: 2,
		},
		{
			name:     "partition by widths",
			req:      service.CreatePolicyRequest{Domain: lineDomain, Graph: service.GraphSpec{Kind: "partition", Widths: []int{8}}},
			status:   http.StatusCreated,
			wantSens: 2,
		},
		{
			name:   "unknown graph kind",
			req:    service.CreatePolicyRequest{Domain: lineDomain, Graph: service.GraphSpec{Kind: "banana"}},
			status: http.StatusBadRequest,
			code:   service.CodeBadRequest,
		},
		{
			name:   "empty domain",
			req:    service.CreatePolicyRequest{Graph: service.GraphSpec{Kind: "full"}},
			status: http.StatusBadRequest,
			code:   service.CodeBadRequest,
		},
		{
			name:   "non-positive attribute size",
			req:    service.CreatePolicyRequest{Domain: []service.AttrSpec{{Name: "v", Size: 0}}, Graph: service.GraphSpec{Kind: "full"}},
			status: http.StatusBadRequest,
			code:   service.CodeBadRequest,
		},
		{
			name:   "l1 without theta",
			req:    service.CreatePolicyRequest{Domain: lineDomain, Graph: service.GraphSpec{Kind: "l1"}},
			status: http.StatusBadRequest,
			code:   service.CodeBadRequest,
		},
		{
			name:   "partition without blocks or widths",
			req:    service.CreatePolicyRequest{Domain: lineDomain, Graph: service.GraphSpec{Kind: "partition"}},
			status: http.StatusBadRequest,
			code:   service.CodeBadRequest,
		},
		{
			name:   "line graph over 2-D domain",
			req:    service.CreatePolicyRequest{Domain: []service.AttrSpec{{Name: "x", Size: 4}, {Name: "y", Size: 4}}, Graph: service.GraphSpec{Kind: "line"}},
			status: http.StatusBadRequest,
			code:   service.CodeBadRequest,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newTestServer(t)
			w := do(t, s, "POST", "/v1/policies", tc.req)
			if tc.status != http.StatusCreated {
				wantError(t, w, tc.status, tc.code)
				return
			}
			if w.Code != http.StatusCreated {
				t.Fatalf("status = %d, want 201 (body %s)", w.Code, w.Body.String())
			}
			resp := decode[service.PolicyResponse](t, w)
			if resp.ID == "" || resp.Name == "" {
				t.Fatalf("incomplete policy response: %+v", resp)
			}
			if resp.HistogramSensitivity != tc.wantSens {
				t.Errorf("histogram sensitivity = %v, want %v", resp.HistogramSensitivity, tc.wantSens)
			}
			got := do(t, s, "GET", "/v1/policies/"+resp.ID, nil)
			if got.Code != http.StatusOK {
				t.Fatalf("get policy: status %d", got.Code)
			}
		})
	}
}

// TestCreatePolicyRejectsMalformedJSON sends bodies that are not exactly
// one valid JSON value: each gets 400 bad_request. Trailing data after an
// otherwise valid body is refused on every decode path, the NDJSON lines
// included, and creates nothing.
func TestCreatePolicyRejectsMalformedJSON(t *testing.T) {
	s, _ := newTestServer(t)
	polID := mustCreatePolicy(t, s, service.CreatePolicyRequest{Domain: lineDomain, Graph: service.GraphSpec{Kind: "line"}})
	dsID := mustCreateDataset(t, s, service.CreateDatasetRequest{PolicyID: polID, Rows: [][]int{{1}}})
	for _, tc := range []struct{ path, contentType, body string }{
		{"/v1/policies", "", "{not json"},
		{"/v1/policies", "", `{"domain": [], "grap": {}}`},
		{"/v1/policies", "", `{"domain":[{"name":"v","size":8}],"graph":{"kind":"line"}} {}`},
		{"/v1/datasets", "", `{"policy_id":"` + polID + `","rows":[[1],[2]]} trailing garbage`},
		{"/v1/datasets", "", `{"policy_id":"` + polID + `","rows":[[1],[2]]}{"x":1}`},
		{"/v1/datasets/" + dsID + "/events", "application/x-ndjson", `{"op":"append","row":[2]} junk` + "\n"},
	} {
		w := doRaw(t, s, "POST", tc.path, tc.contentType, []byte(tc.body))
		wantError(t, w, http.StatusBadRequest, service.CodeBadRequest)
	}
	if n := len(decode[service.ListPoliciesResponse](t, do(t, s, "GET", "/v1/policies", nil)).Policies); n != 1 {
		t.Errorf("%d policies after the refusals, want 1", n)
	}
	datasets := decode[service.ListDatasetsResponse](t, do(t, s, "GET", "/v1/datasets", nil)).Datasets
	if len(datasets) != 1 || datasets[0].Rows != 1 {
		t.Errorf("datasets after the refusals: %+v, want one of 1 row", datasets)
	}
}

// TestNullInRowRefused sends null inside a row on all three JSON paths
// that carry rows. encoding/json would read it as 0 and store a tuple;
// each must get 400 bad_request and change no row count.
func TestNullInRowRefused(t *testing.T) {
	s, _ := newTestServer(t)
	polID, dsID := streamFixtureIDs(t, s)
	events := "/v1/datasets/" + dsID + "/events"
	for _, tc := range []struct{ path, contentType, body string }{
		{"/v1/datasets", "", `{"policy_id":"` + polID + `","rows":[[1],[null],[3]]}`},
		{events, "", `{"events":[{"op":"append","row":[null]}]}`},
		{events, "application/x-ndjson", `{"op":"append","row":[null]}` + "\n"},
	} {
		wantError(t, doRaw(t, s, "POST", tc.path, tc.contentType, []byte(tc.body)), http.StatusBadRequest, service.CodeBadRequest)
	}
	datasets := decode[service.ListDatasetsResponse](t, do(t, s, "GET", "/v1/datasets", nil)).Datasets
	if len(datasets) != 1 || datasets[0].Rows != 0 {
		t.Errorf("datasets after the refusals: %+v, want the one empty fixture", datasets)
	}
}

// TestRequestBodyCap streams a body one byte past the 32 MiB cap: the
// front refuses it with 400 bad_request rather than reading on. The body
// is one JSON string that ends only after the cap, so the refusal can come
// from the cap alone.
func TestRequestBodyCap(t *testing.T) {
	s, _ := newTestServer(t)
	head, tail := `{"policy_id":"`, `"}`
	fill := int64(maxBodyBytes) + 1 - int64(len(head)+len(tail))
	body := io.MultiReader(strings.NewReader(head), io.LimitReader(repeatByte('a'), fill), strings.NewReader(tail))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/datasets", body))
	wantError(t, w, http.StatusBadRequest, service.CodeBadRequest)
	if msg := decode[errorEnvelope](t, w).Error.Message; !strings.Contains(msg, "too large") {
		t.Fatalf("message = %q, want the body-size refusal", msg)
	}
}

// repeatByte is an endless reader of one byte.
type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

func TestGetPolicyUnknown(t *testing.T) {
	s, _ := newTestServer(t)
	wantError(t, do(t, s, "GET", "/v1/policies/pol-99", nil), http.StatusNotFound, service.CodeUnknownPolicy)
}

func TestCreateDataset(t *testing.T) {
	s, _ := newTestServer(t)
	polID := mustCreatePolicy(t, s, service.CreatePolicyRequest{Domain: lineDomain, Graph: service.GraphSpec{Kind: "full"}})

	tests := []struct {
		name   string
		req    service.CreateDatasetRequest
		status int
		code   string
	}{
		{
			name:   "inline domain",
			req:    service.CreateDatasetRequest{Domain: lineDomain, Rows: lineRows(10, 64)},
			status: http.StatusCreated,
		},
		{
			name:   "borrow policy domain",
			req:    service.CreateDatasetRequest{PolicyID: polID, Rows: lineRows(5, 64)},
			status: http.StatusCreated,
		},
		{
			name:   "both policy and domain",
			req:    service.CreateDatasetRequest{PolicyID: polID, Domain: lineDomain, Rows: lineRows(1, 64)},
			status: http.StatusBadRequest,
			code:   service.CodeBadRequest,
		},
		{
			name:   "neither policy nor domain",
			req:    service.CreateDatasetRequest{Rows: lineRows(1, 64)},
			status: http.StatusBadRequest,
			code:   service.CodeBadRequest,
		},
		{
			name:   "unknown policy",
			req:    service.CreateDatasetRequest{PolicyID: "pol-404", Rows: lineRows(1, 64)},
			status: http.StatusNotFound,
			code:   service.CodeUnknownPolicy,
		},
		{
			name:   "row value out of range",
			req:    service.CreateDatasetRequest{Domain: lineDomain, Rows: [][]int{{64}}},
			status: http.StatusBadRequest,
			code:   service.CodeBadRequest,
		},
		{
			name:   "row arity mismatch",
			req:    service.CreateDatasetRequest{Domain: lineDomain, Rows: [][]int{{1, 2}}},
			status: http.StatusBadRequest,
			code:   service.CodeBadRequest,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			w := do(t, s, "POST", "/v1/datasets", tc.req)
			if tc.status != http.StatusCreated {
				wantError(t, w, tc.status, tc.code)
				return
			}
			if w.Code != http.StatusCreated {
				t.Fatalf("status = %d, want 201 (body %s)", w.Code, w.Body.String())
			}
			resp := decode[service.DatasetResponse](t, w)
			if resp.Rows != len(tc.req.Rows) {
				t.Errorf("rows = %d, want %d", resp.Rows, len(tc.req.Rows))
			}
			got := do(t, s, "GET", "/v1/datasets/"+resp.ID, nil)
			if got.Code != http.StatusOK {
				t.Fatalf("get dataset: status %d", got.Code)
			}
		})
	}
}

func TestCreateSessionValidation(t *testing.T) {
	s, _ := newTestServer(t)
	polID := mustCreatePolicy(t, s, service.CreatePolicyRequest{Domain: lineDomain, Graph: service.GraphSpec{Kind: "full"}})

	wantError(t, do(t, s, "POST", "/v1/sessions", service.CreateSessionRequest{PolicyID: "pol-404", Budget: 1}),
		http.StatusNotFound, service.CodeUnknownPolicy)
	wantError(t, do(t, s, "POST", "/v1/sessions", service.CreateSessionRequest{PolicyID: polID, Budget: 0}),
		http.StatusBadRequest, service.CodeBadRequest)
	wantError(t, do(t, s, "POST", "/v1/sessions", service.CreateSessionRequest{PolicyID: polID, Budget: -2}),
		http.StatusBadRequest, service.CodeBadRequest)

	sessID := mustCreateSession(t, s, service.CreateSessionRequest{PolicyID: polID, Budget: 1.5})
	resp := decode[service.SessionResponse](t, do(t, s, "GET", "/v1/sessions/"+sessID, nil))
	if resp.Budget != 1.5 || resp.Remaining != 1.5 || resp.Spent != 0 {
		t.Fatalf("fresh session ledger: %+v", resp)
	}
}

// TestCreateRefusesSeed: the server keys every session and stream from its
// own base seed and the resource id, so a create that names a seed is
// refused, and two sessions with identical bodies over one dataset draw
// different noise.
func TestCreateRefusesSeed(t *testing.T) {
	s, _ := newTestServer(t)
	defer s.Close()
	polID := mustCreatePolicy(t, s, service.CreatePolicyRequest{Domain: lineDomain, Graph: service.GraphSpec{Kind: "l1", Theta: 4}})
	dsID := mustCreateDataset(t, s, service.CreateDatasetRequest{PolicyID: polID, Rows: lineRows(200, 64)})
	for path, body := range map[string]string{
		"/v1/sessions": fmt.Sprintf(`{"policy_id":%q,"dataset_id":%q,"budget":1`, polID, dsID),
		"/v1/streams":  fmt.Sprintf(`{"policy_id":%q,"dataset_id":%q,"budget":1,"epoch":{"epsilon":0.5}`, polID, dsID),
	} {
		w := do(t, s, "POST", path, json.RawMessage(body+`,"seed":7}`))
		wantError(t, w, http.StatusBadRequest, service.CodeBadRequest)
		if !strings.Contains(w.Body.String(), `\"seed\"`) {
			t.Fatalf("POST %s refusal does not name the seed field: %s", path, w.Body.String())
		}
		if w := do(t, s, "POST", path, json.RawMessage(body+`}`)); w.Code != http.StatusCreated {
			t.Fatalf("POST %s without a seed: %d %s", path, w.Code, w.Body.String())
		}
	}

	var draws [2][]float64
	for i := range draws {
		sessID := mustCreateSession(t, s, service.CreateSessionRequest{PolicyID: polID, Budget: 1, DatasetID: dsID})
		draws[i] = decode[service.HistogramResponse](t, do(t, s, "POST", "/v1/sessions/"+sessID+"/releases/histogram",
			service.HistogramRequest{DatasetID: dsID, Epsilon: 0.5})).Counts
	}
	for i := range draws[0] {
		if draws[0][i] == draws[1][i] {
			t.Fatalf("count %d is %v in both sessions: identical creates share noise", i, draws[0][i])
		}
	}
}

func TestSessionDeleteAndExpiry(t *testing.T) {
	s, clk := newTestServer(t)
	polID := mustCreatePolicy(t, s, service.CreatePolicyRequest{Domain: lineDomain, Graph: service.GraphSpec{Kind: "full"}})

	// Delete.
	id := mustCreateSession(t, s, service.CreateSessionRequest{PolicyID: polID, Budget: 1})
	if w := do(t, s, "DELETE", "/v1/sessions/"+id, nil); w.Code != http.StatusNoContent {
		t.Fatalf("delete: status %d", w.Code)
	}
	wantError(t, do(t, s, "GET", "/v1/sessions/"+id, nil), http.StatusNotFound, service.CodeUnknownSession)
	wantError(t, do(t, s, "DELETE", "/v1/sessions/"+id, nil), http.StatusNotFound, service.CodeUnknownSession)

	// Expiry: an idle session dies, a touched one survives.
	idle := mustCreateSession(t, s, service.CreateSessionRequest{PolicyID: polID, Budget: 1})
	live := mustCreateSession(t, s, service.CreateSessionRequest{PolicyID: polID, Budget: 1})
	clk.Advance(50 * time.Minute)
	do(t, s, "GET", "/v1/sessions/"+live, nil) // refreshes the idle timer
	clk.Advance(30 * time.Minute)              // idle is now 80m old, live 30m
	if n := s.ExpireSessions(); n != 1 {
		t.Fatalf("expired %d sessions, want 1", n)
	}
	wantError(t, do(t, s, "GET", "/v1/sessions/"+idle, nil), http.StatusNotFound, service.CodeUnknownSession)
	if w := do(t, s, "GET", "/v1/sessions/"+live, nil); w.Code != http.StatusOK {
		t.Fatalf("live session gone: status %d", w.Code)
	}
}

func TestDeletePolicyAndDataset(t *testing.T) {
	s, _ := newTestServer(t)
	polID := mustCreatePolicy(t, s, service.CreatePolicyRequest{Domain: lineDomain, Graph: service.GraphSpec{Kind: "full"}})
	dsID := mustCreateDataset(t, s, service.CreateDatasetRequest{PolicyID: polID, Rows: lineRows(4, 64)})

	// A policy with a live session cannot be deleted.
	sessID := mustCreateSession(t, s, service.CreateSessionRequest{PolicyID: polID, Budget: 1})
	wantError(t, do(t, s, "DELETE", "/v1/policies/"+polID, nil), http.StatusConflict, service.CodePolicyInUse)
	if w := do(t, s, "GET", "/v1/policies/"+polID, nil); w.Code != http.StatusOK {
		t.Fatalf("policy vanished after refused delete: %d", w.Code)
	}

	// After the session is gone the policy deletes cleanly.
	if w := do(t, s, "DELETE", "/v1/sessions/"+sessID, nil); w.Code != http.StatusNoContent {
		t.Fatalf("delete session: %d", w.Code)
	}
	if w := do(t, s, "DELETE", "/v1/policies/"+polID, nil); w.Code != http.StatusNoContent {
		t.Fatalf("delete policy: %d %s", w.Code, w.Body.String())
	}
	wantError(t, do(t, s, "GET", "/v1/policies/"+polID, nil), http.StatusNotFound, service.CodeUnknownPolicy)
	wantError(t, do(t, s, "DELETE", "/v1/policies/"+polID, nil), http.StatusNotFound, service.CodeUnknownPolicy)

	// Datasets delete unconditionally.
	if w := do(t, s, "DELETE", "/v1/datasets/"+dsID, nil); w.Code != http.StatusNoContent {
		t.Fatalf("delete dataset: %d", w.Code)
	}
	wantError(t, do(t, s, "GET", "/v1/datasets/"+dsID, nil), http.StatusNotFound, service.CodeUnknownDataset)
	wantError(t, do(t, s, "DELETE", "/v1/datasets/"+dsID, nil), http.StatusNotFound, service.CodeUnknownDataset)
}

func TestHistogramRelease(t *testing.T) {
	s, _ := newTestServer(t)
	polID := mustCreatePolicy(t, s, service.CreatePolicyRequest{Domain: lineDomain, Graph: service.GraphSpec{Kind: "l1", Theta: 4}})
	dsID := mustCreateDataset(t, s, service.CreateDatasetRequest{PolicyID: polID, Rows: lineRows(100, 64)})
	sessID := mustCreateSession(t, s, service.CreateSessionRequest{PolicyID: polID, Budget: 1})

	w := do(t, s, "POST", "/v1/sessions/"+sessID+"/releases/histogram", service.HistogramRequest{DatasetID: dsID, Epsilon: 0.5})
	if w.Code != http.StatusOK {
		t.Fatalf("histogram: status %d body %s", w.Code, w.Body.String())
	}
	resp := decode[service.HistogramResponse](t, w)
	if len(resp.Counts) != 64 {
		t.Fatalf("len(counts) = %d, want 64", len(resp.Counts))
	}
	if math.Abs(resp.Remaining-0.5) > 1e-9 {
		t.Fatalf("remaining = %v, want 0.5", resp.Remaining)
	}

	// The ledger shows the spend.
	sess := decode[service.SessionResponse](t, do(t, s, "GET", "/v1/sessions/"+sessID, nil))
	if len(sess.Releases) != 1 || sess.Releases[0].Label != "histogram" {
		t.Fatalf("ledger = %+v", sess.Releases)
	}

	// Invalid epsilon never charges.
	wantError(t, do(t, s, "POST", "/v1/sessions/"+sessID+"/releases/histogram", service.HistogramRequest{DatasetID: dsID, Epsilon: -1}),
		http.StatusBadRequest, service.CodeBadRequest)

	// Exhaust, then verify the structured budget error.
	if w := do(t, s, "POST", "/v1/sessions/"+sessID+"/releases/histogram", service.HistogramRequest{DatasetID: dsID, Epsilon: 0.5}); w.Code != http.StatusOK {
		t.Fatalf("second histogram: status %d", w.Code)
	}
	wantError(t, do(t, s, "POST", "/v1/sessions/"+sessID+"/releases/histogram", service.HistogramRequest{DatasetID: dsID, Epsilon: 0.1}),
		http.StatusConflict, service.CodeBudgetExhausted)
}

func TestHistogramDomainMismatch(t *testing.T) {
	s, _ := newTestServer(t)
	polID := mustCreatePolicy(t, s, service.CreatePolicyRequest{Domain: lineDomain, Graph: service.GraphSpec{Kind: "full"}})
	otherDS := mustCreateDataset(t, s, service.CreateDatasetRequest{Domain: []service.AttrSpec{{Name: "w", Size: 8}}, Rows: lineRows(4, 8)})
	sessID := mustCreateSession(t, s, service.CreateSessionRequest{PolicyID: polID, Budget: 1})

	wantError(t, do(t, s, "POST", "/v1/sessions/"+sessID+"/releases/histogram", service.HistogramRequest{DatasetID: otherDS, Epsilon: 0.5}),
		http.StatusUnprocessableEntity, service.CodeDomainMismatch)
	wantError(t, do(t, s, "POST", "/v1/sessions/"+sessID+"/releases/histogram", service.HistogramRequest{DatasetID: "ds-404", Epsilon: 0.5}),
		http.StatusNotFound, service.CodeUnknownDataset)
	wantError(t, do(t, s, "POST", "/v1/sessions/sess-404/releases/histogram", service.HistogramRequest{DatasetID: otherDS, Epsilon: 0.5}),
		http.StatusNotFound, service.CodeUnknownSession)
}

func TestPartitionHistogramIsExactAndFree(t *testing.T) {
	s, _ := newTestServer(t)
	// Partition policy whose blocks are the histogram blocks: every secret
	// pair stays inside a block, so h_P has sensitivity 0 and the release
	// is exact and costs nothing (Section 5's coarse-grid observation).
	polID := mustCreatePolicy(t, s, service.CreatePolicyRequest{
		Domain: lineDomain,
		Graph:  service.GraphSpec{Kind: "partition", Widths: []int{8}},
	})
	dsID := mustCreateDataset(t, s, service.CreateDatasetRequest{PolicyID: polID, Rows: lineRows(64, 64)})
	sessID := mustCreateSession(t, s, service.CreateSessionRequest{PolicyID: polID, Budget: 1})

	w := do(t, s, "POST", "/v1/sessions/"+sessID+"/releases/histogram", service.HistogramRequest{DatasetID: dsID, Epsilon: 0.5})
	if w.Code != http.StatusOK {
		t.Fatalf("partition histogram: status %d body %s", w.Code, w.Body.String())
	}
	resp := decode[service.HistogramResponse](t, w)
	if len(resp.Counts) != 8 {
		t.Fatalf("len(counts) = %d, want 8 blocks", len(resp.Counts))
	}
	for i, c := range resp.Counts {
		if c != 8 { // 64 uniform rows over 8 blocks, exact release
			t.Fatalf("block %d = %v, want exactly 8", i, c)
		}
	}
	if resp.Remaining != 1 {
		t.Fatalf("remaining = %v, want 1 (exact release is free)", resp.Remaining)
	}

	// A free release may even be requested with epsilon 0.
	w = do(t, s, "POST", "/v1/sessions/"+sessID+"/releases/histogram", service.HistogramRequest{DatasetID: dsID})
	if w.Code != http.StatusOK {
		t.Fatalf("epsilon-0 exact release: status %d body %s", w.Code, w.Body.String())
	}
	if free := decode[service.HistogramResponse](t, w); free.Remaining != 1 {
		t.Fatalf("epsilon-0 release charged budget: remaining %v", free.Remaining)
	}
}

func TestCumulativeRelease(t *testing.T) {
	s, _ := newTestServer(t)
	polID := mustCreatePolicy(t, s, service.CreatePolicyRequest{Domain: lineDomain, Graph: service.GraphSpec{Kind: "line"}})
	dsID := mustCreateDataset(t, s, service.CreateDatasetRequest{PolicyID: polID, Rows: lineRows(200, 64)})
	sessID := mustCreateSession(t, s, service.CreateSessionRequest{PolicyID: polID, Budget: 1})

	w := do(t, s, "POST", "/v1/sessions/"+sessID+"/releases/cumulative", service.CumulativeRequest{DatasetID: dsID, Epsilon: 0.5})
	if w.Code != http.StatusOK {
		t.Fatalf("cumulative: status %d body %s", w.Code, w.Body.String())
	}
	resp := decode[service.CumulativeResponse](t, w)
	if len(resp.Raw) != 64 || len(resp.Inferred) != 64 {
		t.Fatalf("lengths raw=%d inferred=%d, want 64", len(resp.Raw), len(resp.Inferred))
	}
	for i := 1; i < len(resp.Inferred); i++ {
		if resp.Inferred[i] < resp.Inferred[i-1] {
			t.Fatalf("inferred not monotone at %d: %v < %v", i, resp.Inferred[i], resp.Inferred[i-1])
		}
	}
	if resp.Inferred[0] < 0 || resp.Inferred[63] > 200 {
		t.Fatalf("inferred out of [0, n]: first=%v last=%v", resp.Inferred[0], resp.Inferred[63])
	}
}

func TestRangeRelease(t *testing.T) {
	s, _ := newTestServer(t)
	polID := mustCreatePolicy(t, s, service.CreatePolicyRequest{Domain: lineDomain, Graph: service.GraphSpec{Kind: "l1", Theta: 8}})
	dsID := mustCreateDataset(t, s, service.CreateDatasetRequest{PolicyID: polID, Rows: lineRows(500, 64)})
	sessID := mustCreateSession(t, s, service.CreateSessionRequest{PolicyID: polID, Budget: 2})

	w := do(t, s, "POST", "/v1/sessions/"+sessID+"/releases/range", service.RangeRequest{
		DatasetID: dsID,
		Epsilon:   1,
		Queries:   []service.RangeQuery{{Lo: 0, Hi: 63}, {Lo: 10, Hi: 20}, {Lo: 5, Hi: 5}},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("range: status %d body %s", w.Code, w.Body.String())
	}
	resp := decode[service.RangeResponse](t, w)
	if len(resp.Answers) != 3 {
		t.Fatalf("len(answers) = %d, want 3", len(resp.Answers))
	}
	// 500 rows cycling over 64 values: the full-domain count is ~500; the
	// noisy answer should be in the right ballpark at ε=1.
	if math.Abs(resp.Answers[0]-500) > 200 {
		t.Errorf("full-range answer = %v, want ≈500", resp.Answers[0])
	}
	if math.Abs(resp.Remaining-1) > 1e-9 {
		t.Fatalf("remaining = %v, want 1 (one charge for the whole batch)", resp.Remaining)
	}

	// A malformed query is rejected before any budget is spent.
	wantError(t, do(t, s, "POST", "/v1/sessions/"+sessID+"/releases/range", service.RangeRequest{
		DatasetID: dsID, Epsilon: 1, Queries: []service.RangeQuery{{Lo: 10, Hi: 200}},
	}), http.StatusBadRequest, service.CodeBadRequest)
	wantError(t, do(t, s, "POST", "/v1/sessions/"+sessID+"/releases/range", service.RangeRequest{
		DatasetID: dsID, Epsilon: 1,
	}), http.StatusBadRequest, service.CodeBadRequest)
	sess := decode[service.SessionResponse](t, do(t, s, "GET", "/v1/sessions/"+sessID, nil))
	if math.Abs(sess.Remaining-1) > 1e-9 {
		t.Fatalf("failed queries charged budget: remaining %v", sess.Remaining)
	}

	// An attr-graph policy cannot serve range queries: structured error.
	attrPol := mustCreatePolicy(t, s, service.CreatePolicyRequest{Domain: lineDomain, Graph: service.GraphSpec{Kind: "attr"}})
	attrSess := mustCreateSession(t, s, service.CreateSessionRequest{PolicyID: attrPol, Budget: 1})
	wantError(t, do(t, s, "POST", "/v1/sessions/"+attrSess+"/releases/range", service.RangeRequest{
		DatasetID: dsID, Epsilon: 1, Queries: []service.RangeQuery{{Lo: 0, Hi: 5}},
	}), http.StatusBadRequest, service.CodeBadRequest)
}

func TestHealthz(t *testing.T) {
	s, _ := newTestServer(t)
	w := do(t, s, "GET", "/v1/healthz", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", w.Code)
	}
}

// TestIntegrationFullFlow drives a real HTTP server (httptest) through the
// whole lifecycle for each of the paper's standard specifications: create
// policy, upload data, open a budgeted session, draw histogram and range
// releases until ε is exhausted, and verify the server then refuses with a
// structured budget_exhausted error.
func TestIntegrationFullFlow(t *testing.T) {
	specs := []struct {
		name  string
		graph service.GraphSpec
		// useCumulative swaps the range draw for a cumulative-histogram
		// draw: range releases require a distance-threshold or full-domain
		// graph, which the attr specification is not.
		useCumulative bool
	}{
		{name: "full", graph: service.GraphSpec{Kind: "full"}},
		{name: "attr", graph: service.GraphSpec{Kind: "attr"}, useCumulative: true},
		{name: "l1-theta", graph: service.GraphSpec{Kind: "l1", Theta: 8}},
	}
	for _, spec := range specs {
		t.Run(spec.name, func(t *testing.T) {
			srv := newServer(t, service.Config{Seed: 7})
			ts := httptest.NewServer(srv)
			defer ts.Close()

			post := func(path string, body, out any) (int, string) {
				t.Helper()
				b, err := json.Marshal(body)
				if err != nil {
					t.Fatalf("marshal: %v", err)
				}
				resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
				if err != nil {
					t.Fatalf("POST %s: %v", path, err)
				}
				defer resp.Body.Close()
				raw, _ := io.ReadAll(resp.Body)
				if out != nil && resp.StatusCode < 300 {
					if err := json.Unmarshal(raw, out); err != nil {
						t.Fatalf("decode %s: %v (%s)", path, err, raw)
					}
				}
				return resp.StatusCode, string(raw)
			}

			var pol service.PolicyResponse
			if code, raw := post("/v1/policies", service.CreatePolicyRequest{Domain: lineDomain, Graph: spec.graph}, &pol); code != http.StatusCreated {
				t.Fatalf("create policy: %d %s", code, raw)
			}
			var ds service.DatasetResponse
			if code, raw := post("/v1/datasets", service.CreateDatasetRequest{PolicyID: pol.ID, Rows: lineRows(300, 64)}, &ds); code != http.StatusCreated {
				t.Fatalf("create dataset: %d %s", code, raw)
			}
			var sess service.SessionResponse
			if code, raw := post("/v1/sessions", service.CreateSessionRequest{PolicyID: pol.ID, Budget: 1.0}, &sess); code != http.StatusCreated {
				t.Fatalf("create session: %d %s", code, raw)
			}

			base := "/v1/sessions/" + sess.ID + "/releases"

			// Draw releases until the budget runs out: 2 × 0.4 fits in
			// ε=1.0, the third draw of 0.4 must be refused.
			var hist service.HistogramResponse
			if code, raw := post(base+"/histogram", service.HistogramRequest{DatasetID: ds.ID, Epsilon: 0.4}, &hist); code != http.StatusOK {
				t.Fatalf("histogram: %d %s", code, raw)
			}
			if len(hist.Counts) != 64 {
				t.Fatalf("histogram length %d", len(hist.Counts))
			}

			if spec.useCumulative {
				var cum service.CumulativeResponse
				if code, raw := post(base+"/cumulative", service.CumulativeRequest{DatasetID: ds.ID, Epsilon: 0.4}, &cum); code != http.StatusOK {
					t.Fatalf("cumulative: %d %s", code, raw)
				}
				if len(cum.Inferred) != 64 {
					t.Fatalf("cumulative length %d", len(cum.Inferred))
				}
				if math.Abs(cum.Remaining-0.2) > 1e-9 {
					t.Fatalf("remaining = %v, want 0.2", cum.Remaining)
				}
			} else {
				var rng service.RangeResponse
				if code, raw := post(base+"/range", service.RangeRequest{
					DatasetID: ds.ID, Epsilon: 0.4,
					Queries: []service.RangeQuery{{Lo: 0, Hi: 31}, {Lo: 32, Hi: 63}},
				}, &rng); code != http.StatusOK {
					t.Fatalf("range: %d %s", code, raw)
				}
				if len(rng.Answers) != 2 {
					t.Fatalf("range answers %v", rng.Answers)
				}
				if math.Abs(rng.Remaining-0.2) > 1e-9 {
					t.Fatalf("remaining = %v, want 0.2", rng.Remaining)
				}
			}

			// Third draw exceeds the budget: structured 409.
			code, raw := post(base+"/histogram", service.HistogramRequest{DatasetID: ds.ID, Epsilon: 0.4}, nil)
			if code != http.StatusConflict {
				t.Fatalf("over-budget draw: %d %s, want 409", code, raw)
			}
			var env errorEnvelope
			if err := json.Unmarshal([]byte(raw), &env); err != nil || env.Error.Code != service.CodeBudgetExhausted {
				t.Fatalf("over-budget error body %s", raw)
			}

			// The remaining 0.2 is still spendable.
			if code, raw := post(base+"/histogram", service.HistogramRequest{DatasetID: ds.ID, Epsilon: 0.2}, &hist); code != http.StatusOK {
				t.Fatalf("final draw: %d %s", code, raw)
			}
		})
	}
}

// TestConcurrentReleasesNeverOverspend hammers one session from many
// goroutines through the HTTP surface and asserts the accountant's
// invariants: total spend ≤ budget, and the ledger length equals the
// number of successful releases.
func TestConcurrentReleasesNeverOverspend(t *testing.T) {
	s, _ := newTestServer(t)
	polID := mustCreatePolicy(t, s, service.CreatePolicyRequest{Domain: lineDomain, Graph: service.GraphSpec{Kind: "l1", Theta: 4}})
	dsID := mustCreateDataset(t, s, service.CreateDatasetRequest{PolicyID: polID, Rows: lineRows(50, 64)})

	const (
		budget     = 1.0
		eps        = 0.05 // 20 successes fit exactly
		goroutines = 8
		perG       = 10 // 80 attempts total, at most 20 can succeed
	)
	sessID := mustCreateSession(t, s, service.CreateSessionRequest{PolicyID: polID, Budget: budget})

	var wg sync.WaitGroup
	var mu sync.Mutex
	okCount, exhausted, other := 0, 0, 0
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				body, _ := json.Marshal(service.HistogramRequest{DatasetID: dsID, Epsilon: eps})
				req := httptest.NewRequest("POST", "/v1/sessions/"+sessID+"/releases/histogram", bytes.NewReader(body))
				w := httptest.NewRecorder()
				s.ServeHTTP(w, req)
				mu.Lock()
				switch w.Code {
				case http.StatusOK:
					okCount++
				case http.StatusConflict:
					exhausted++
				default:
					other++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if other != 0 {
		t.Fatalf("%d requests failed with unexpected statuses", other)
	}
	if okCount+exhausted != goroutines*perG {
		t.Fatalf("accounted %d responses, want %d", okCount+exhausted, goroutines*perG)
	}
	sess := decode[service.SessionResponse](t, do(t, s, "GET", "/v1/sessions/"+sessID, nil))
	if sess.Spent > budget+1e-9 {
		t.Fatalf("overspent: %v > %v", sess.Spent, budget)
	}
	if want := float64(okCount) * eps; math.Abs(sess.Spent-want) > 1e-9 {
		t.Fatalf("spent %v, want %v (%d successes × %v)", sess.Spent, want, okCount, eps)
	}
	if len(sess.Releases) != okCount {
		t.Fatalf("ledger has %d entries, want %d", len(sess.Releases), okCount)
	}
	if okCount != 20 {
		t.Fatalf("okCount = %d, want exactly 20 (budget/eps)", okCount)
	}
}

// TestConcurrentSessionCreateAndExpire races session creation, use,
// deletion and expiry sweeps to shake out registry races under -race.
func TestConcurrentSessionCreateAndExpire(t *testing.T) {
	s, clk := newTestServer(t)
	polID := mustCreatePolicy(t, s, service.CreatePolicyRequest{Domain: lineDomain, Graph: service.GraphSpec{Kind: "full"}})
	dsID := mustCreateDataset(t, s, service.CreateDatasetRequest{PolicyID: polID, Rows: lineRows(10, 64)})

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				body, _ := json.Marshal(service.CreateSessionRequest{PolicyID: polID, Budget: 1})
				req := httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(body))
				w := httptest.NewRecorder()
				s.ServeHTTP(w, req)
				if w.Code != http.StatusCreated {
					t.Errorf("create session: %d", w.Code)
					return
				}
				var resp service.SessionResponse
				_ = json.Unmarshal(w.Body.Bytes(), &resp)

				rbody, _ := json.Marshal(service.HistogramRequest{DatasetID: dsID, Epsilon: 0.5})
				rreq := httptest.NewRequest("POST", fmt.Sprintf("/v1/sessions/%s/releases/histogram", resp.ID), bytes.NewReader(rbody))
				rw := httptest.NewRecorder()
				s.ServeHTTP(rw, rreq)
				if rw.Code != http.StatusOK && rw.Code != http.StatusNotFound {
					t.Errorf("release: %d %s", rw.Code, rw.Body.String())
					return
				}
				if i%3 == 0 {
					dreq := httptest.NewRequest("DELETE", "/v1/sessions/"+resp.ID, nil)
					s.ServeHTTP(httptest.NewRecorder(), dreq)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			clk.Advance(5 * time.Minute)
			s.ExpireSessions()
		}
	}()
	wg.Wait()
}
