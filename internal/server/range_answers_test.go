package server

import (
	"fmt"
	"math"
	"net/http"
	"testing"

	"blowfish"
	"blowfish/internal/noise"
	"blowfish/internal/service"
	"blowfish/internal/shard"
)

// TestServedRangeMatchesReleaser pins the served range path to the
// library's full release: at 1 and at 4 shards, the range route's answers
// and a range-kind stream epoch's range_answers must equal, bit for bit,
// NewRangeReleaser(...).Range from a keyed session at the same
// ResourceKey and ordinal.
func TestServedRangeMatchesReleaser(t *testing.T) {
	const (
		seed  = 42
		size  = 1024
		theta = 16
		eps   = 0.5
	)
	rows := make([][]int, 5000)
	for i := range rows {
		rows[i] = []int{i * 7919 % size}
	}
	dom, err := blowfish.LineDomain("v", size)
	if err != nil {
		t.Fatal(err)
	}
	g, err := blowfish.DistanceThreshold(dom, theta)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := blowfish.Compile(blowfish.NewPolicy(g))
	if err != nil {
		t.Fatal(err)
	}
	ds := blowfish.NewDataset(dom)
	for _, r := range rows {
		ds.MustAdd(blowfish.Point(r[0]))
	}
	// want answers queries from the ordinal-th release of the keyed
	// session named id.
	want := func(t *testing.T, id string, ordinal int, queries []service.RangeQuery) []float64 {
		t.Helper()
		ref, err := cp.NewKeyedSession(100, noise.ResourceKey(seed, id))
		if err != nil {
			t.Fatal(err)
		}
		var rel *blowfish.RangeReleaser
		for range ordinal {
			if rel, err = ref.NewRangeReleaser(ds, 16, eps); err != nil {
				t.Fatal(err)
			}
		}
		out := make([]float64, len(queries))
		for i, q := range queries {
			if out[i], err = rel.Range(q.Lo, q.Hi); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	same := func(t *testing.T, what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d answers, want %d", what, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: answer %d = %v, want %v", what, i, got[i], want[i])
			}
		}
	}
	bodies := [][]service.RangeQuery{
		{{Lo: 10, Hi: 900}},
		{{Lo: 0, Hi: size - 1}, {Lo: 0, Hi: 15}, {Lo: 16, Hi: 47}, {Lo: 5, Hi: 5}, {Lo: 1000, Hi: 1023}, {Lo: 300, Hi: 301}},
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r, err := shard.Open(service.Config{Seed: seed}, shards)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			s := New(r)
			polID := mustCreatePolicy(t, s, service.CreatePolicyRequest{
				Domain: []service.AttrSpec{{Name: "v", Size: size}},
				Graph:  service.GraphSpec{Kind: "l1", Theta: theta},
			})
			dsID := mustCreateDataset(t, s, service.CreateDatasetRequest{PolicyID: polID, Rows: rows})
			sessID := mustCreateSession(t, s, service.CreateSessionRequest{PolicyID: polID, DatasetID: dsID, Budget: 100})
			for i, queries := range bodies {
				w := do(t, s, "POST", "/v1/sessions/"+sessID+"/releases/range", service.RangeRequest{DatasetID: dsID, Epsilon: eps, Queries: queries})
				if w.Code != http.StatusOK {
					t.Fatalf("range: status %d body %s", w.Code, w.Body.String())
				}
				same(t, fmt.Sprintf("range body %d", i), decode[service.RangeResponse](t, w).Answers, want(t, sessID, i+1, queries))
			}

			queries := bodies[1]
			w := do(t, s, "POST", "/v1/streams", service.CreateStreamRequest{
				PolicyID: polID, DatasetID: dsID, Budget: 100, Epoch: service.EpochSpec{Epsilon: eps},
				Kinds: []string{"range"}, RangeQueries: queries,
			})
			if w.Code != http.StatusCreated {
				t.Fatalf("create stream: status %d body %s", w.Code, w.Body.String())
			}
			stID := decode[service.StreamResponse](t, w).ID
			for epoch := 1; epoch <= 2; epoch++ {
				w := do(t, s, "POST", "/v1/streams/"+stID+"/epochs", nil)
				if w.Code != http.StatusOK {
					t.Fatalf("close epoch: status %d body %s", w.Code, w.Body.String())
				}
				same(t, fmt.Sprintf("epoch %d", epoch), decode[service.EpochReleaseWire](t, w).RangeAnswers, want(t, stID, epoch, queries))
			}
		})
	}
}
