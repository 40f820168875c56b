package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"blowfish"
	"blowfish/internal/codec"
	"blowfish/internal/service"
)

// ingestBenchFixture stands up a server with an empty streamable dataset
// and returns the events path plus the 256-event batch in every encoding.
func ingestBenchFixture(b *testing.B) (s *Server, path string, ndjson, binary, envelope []byte) {
	b.Helper()
	s = newServer(b, service.Config{Seed: 1})
	b.Cleanup(s.Close)
	post := func(p string, body any) []byte {
		b.Helper()
		raw, _ := json.Marshal(body)
		req := httptest.NewRequest("POST", p, bytes.NewReader(raw))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusCreated {
			b.Fatalf("POST %s: %d %s", p, w.Code, w.Body.String())
		}
		return w.Body.Bytes()
	}
	var pol service.PolicyResponse
	_ = json.Unmarshal(post("/v1/policies", service.CreatePolicyRequest{
		Domain: []service.AttrSpec{{Name: "v", Size: 1024}},
		Graph:  service.GraphSpec{Kind: "l1", Theta: 16},
	}), &pol)
	// Preload the rows the benchmark batches upsert over, so the dataset
	// holds a constant 256 tuples however long the bench runs — appends
	// would grow it with b.N and make the apply side's cost depend on how
	// many batches the encoding under test managed to push.
	const batch = 256
	rows := make([][]int, batch)
	for i := range rows {
		rows[i] = []int{i % 1024}
	}
	var ds service.DatasetResponse
	_ = json.Unmarshal(post("/v1/datasets", service.CreateDatasetRequest{PolicyID: pol.ID, Rows: rows}), &ds)
	path = "/v1/datasets/" + ds.ID + "/events"

	events := make([]blowfish.StreamEvent, batch)
	wires := make([]service.EventWire, batch)
	var nd bytes.Buffer
	for i := range events {
		v := (i + 1) % 1024
		events[i] = blowfish.StreamEvent{Op: "upsert", ID: i, Row: []int{v}}
		wires[i] = service.EventWire{Op: "upsert", ID: i, Row: []int{v}}
		fmt.Fprintf(&nd, `{"op":"upsert","id":%d,"row":[%d]}`+"\n", i, v)
	}
	bin, err := codec.AppendFrame(nil, events, 1)
	if err != nil {
		b.Fatal(err)
	}
	env, _ := json.Marshal(service.EventsRequest{Events: wires})
	return s, path, nd.Bytes(), bin, env
}

// postBatch submits one pre-encoded batch; its 202 means the batch is
// applied, so events/s is applied throughput.
func postBatch(b *testing.B, s *Server, path, contentType string, body []byte) {
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusAccepted {
		b.Fatalf("events: %d %s", w.Code, w.Body.String())
	}
}

// The ingest benchmarks push identical 256-append batches through each
// encoding of POST /v1/datasets/{id}/events; the events/s metric is what
// BENCH_ingest.json records and the ≥2x binary-over-NDJSON target compares.

func BenchmarkIngestNDJSON(b *testing.B) {
	s, path, nd, _, _ := ingestBenchFixture(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(nd)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postBatch(b, s, path, "application/x-ndjson", nd)
	}
	b.ReportMetric(float64(256*b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkIngestBinary(b *testing.B) {
	s, path, _, bin, _ := ingestBenchFixture(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(bin)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postBatch(b, s, path, codec.ContentType, bin)
	}
	b.ReportMetric(float64(256*b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkIngestJSONEnvelope(b *testing.B) {
	s, path, _, _, env := ingestBenchFixture(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(env)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postBatch(b, s, path, "application/json", env)
	}
	b.ReportMetric(float64(256*b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkDatasetUpload measures one POST /v1/datasets through ServeHTTP:
// body decode, domain encode and the dataset build. The loadbench case is
// the upload every loadbench workload makes at set-up (200,000 rows of one
// 1024-value attribute); the skin case has the shape of the paper's Skin
// dataset (245,057 rows of three 256-value attributes). Each op's dataset
// is deleted outside the timer, so memory stays flat across ops.
func BenchmarkDatasetUpload(b *testing.B) {
	for _, tc := range []struct {
		name  string
		rows  int
		attrs []service.AttrSpec
	}{
		{"loadbench", 200_000, []service.AttrSpec{{Name: "v", Size: 1024}}},
		{"skin", 245_057, []service.AttrSpec{{Name: "r", Size: 256}, {Name: "g", Size: 256}, {Name: "b", Size: 256}}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := newServer(b, service.Config{Seed: 1})
			b.Cleanup(s.Close)
			spec, _ := json.Marshal(service.CreatePolicyRequest{Domain: tc.attrs, Graph: service.GraphSpec{Kind: "l1", Theta: 16}})
			w := doRaw(b, s, "POST", "/v1/policies", "", spec)
			if w.Code != http.StatusCreated {
				b.Fatalf("create policy: %d %s", w.Code, w.Body.String())
			}
			var pol service.PolicyResponse
			_ = json.Unmarshal(w.Body.Bytes(), &pol)
			// {"policy_id":"pol-1","rows":[[v,...],...]}, values uniform.
			rng := rand.New(rand.NewPCG(1, 2))
			body := fmt.Appendf(nil, `{"policy_id":%q,"rows":[`, pol.ID)
			for i := range tc.rows {
				if i > 0 {
					body = append(body, ',')
				}
				body = append(body, '[')
				for j, a := range tc.attrs {
					if j > 0 {
						body = append(body, ',')
					}
					body = strconv.AppendInt(body, int64(rng.IntN(a.Size)), 10)
				}
				body = append(body, ']')
			}
			body = append(body, ']', '}')
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := doRaw(b, s, "POST", "/v1/datasets", "", body)
				b.StopTimer()
				var ds service.DatasetResponse
				if err := json.Unmarshal(w.Body.Bytes(), &ds); w.Code != http.StatusCreated || err != nil || ds.Rows != tc.rows {
					b.Fatalf("upload: %d %s", w.Code, w.Body.String())
				}
				if w := doRaw(b, s, "DELETE", "/v1/datasets/"+ds.ID, "", nil); w.Code != http.StatusNoContent {
					b.Fatalf("delete: %d %s", w.Code, w.Body.String())
				}
				b.StartTimer()
			}
		})
	}
}
