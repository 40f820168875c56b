package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestLogRequestsQuietAllocs pins the access log's cost on a server that
// does not log requests: nothing beyond the handler's own allocations.
func TestLogRequestsQuietAllocs(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(&bytes.Buffer{}, &slog.HandlerOptions{Level: slog.LevelWarn}))
	h := logRequests(logger, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	w := httptest.NewRecorder()
	r := httptest.NewRequest("GET", "/v1/healthz", nil)
	if n := testing.AllocsPerRun(100, func() { h.ServeHTTP(w, r) }); n != 0 {
		t.Fatalf("logRequests at warn: %v allocs per request, want 0", n)
	}
}

// TestLogRequestsDebugRecord checks that a debug-level server still logs
// one record per request with its method, path and status.
func TestLogRequestsDebugRecord(t *testing.T) {
	var out bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&out, &slog.HandlerOptions{Level: slog.LevelDebug}))
	h := logRequests(logger, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("DELETE", "/v1/streams/stream-1", nil))
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if len(lines) != 1 {
		t.Fatalf("got %d log records, want 1:\n%s", len(lines), out.String())
	}
	var rec struct {
		Msg    string `json:"msg"`
		Method string `json:"method"`
		Path   string `json:"path"`
		Status int    `json:"status"`
	}
	if err := json.Unmarshal(lines[0], &rec); err != nil {
		t.Fatalf("decode %q: %v", lines[0], err)
	}
	if rec.Msg != "request" || rec.Method != "DELETE" || rec.Path != "/v1/streams/stream-1" || rec.Status != http.StatusTeapot {
		t.Fatalf("record = %+v", rec)
	}
}
