package server

// End-to-end coverage for custom secret graphs: the explicit and compose
// policy kinds through the HTTP API, their compiled-plan releases, the
// durable-recovery path, and the stream-exhaustion poll regression.

import (
	"net/http"
	"reflect"
	"testing"

	"blowfish/internal/service"
)

// bandEdges is a small "salary bands" graph over v:64: values are secrets
// within three bands, with one bridge edge between adjacent bands.
func bandEdges() [][2][]int {
	var edges [][2][]int
	band := func(lo, hi int) {
		for x := lo; x <= hi; x++ {
			for y := x + 1; y <= hi; y++ {
				edges = append(edges, [2][]int{{x}, {y}})
			}
		}
	}
	band(0, 15)
	band(16, 39)
	band(40, 63)
	edges = append(edges, [2][]int{{15}, {16}}, [2][]int{{39}, {40}})
	return edges
}

func TestExplicitPolicyEndToEnd(t *testing.T) {
	s, _ := newTestServer(t)
	defer s.Close()

	w := do(t, s, "POST", "/v1/policies", service.CreatePolicyRequest{
		Domain: lineDomain,
		Graph:  service.GraphSpec{Kind: "explicit", Name: "bands", Edges: bandEdges()},
	})
	if w.Code != http.StatusCreated {
		t.Fatalf("create explicit policy: %d %s", w.Code, w.Body.String())
	}
	pol := decode[service.PolicyResponse](t, w)
	if pol.Edges != len(bandEdges()) || pol.Components != 1 {
		t.Fatalf("policy stats = %d edges, %d components; want %d edges, 1 component",
			pol.Edges, pol.Components, len(bandEdges()))
	}
	if pol.HistogramSensitivity != 2 {
		t.Fatalf("histogram sensitivity = %v, want 2", pol.HistogramSensitivity)
	}

	dsID := mustCreateDataset(t, s, service.CreateDatasetRequest{PolicyID: pol.ID, Rows: lineRows(200, 64)})
	sessID := mustCreateSession(t, s, service.CreateSessionRequest{PolicyID: pol.ID, Budget: 10})

	hist := decode[service.HistogramResponse](t, do(t, s, "POST",
		"/v1/sessions/"+sessID+"/releases/histogram", service.HistogramRequest{DatasetID: dsID, Epsilon: 0.5}))
	if len(hist.Counts) != 64 {
		t.Fatalf("histogram length %d", len(hist.Counts))
	}
	cum := decode[service.CumulativeResponse](t, do(t, s, "POST",
		"/v1/sessions/"+sessID+"/releases/cumulative", service.CumulativeRequest{DatasetID: dsID, Epsilon: 0.5}))
	if len(cum.Inferred) != 64 {
		t.Fatalf("cumulative length %d", len(cum.Inferred))
	}
	rng := do(t, s, "POST", "/v1/sessions/"+sessID+"/releases/range", service.RangeRequest{
		DatasetID: dsID, Epsilon: 0.5, Queries: []service.RangeQuery{{Lo: 0, Hi: 30}, {Lo: 16, Hi: 39}},
	})
	if rng.Code != http.StatusOK {
		t.Fatalf("range release over explicit policy: %d %s", rng.Code, rng.Body.String())
	}
}

// TestExplicitPolicySeededDeterminism pins the compiled path's determinism:
// two servers with the same base seed given the same requests over an
// explicit policy answer bit-for-bit identical releases.
func TestExplicitPolicySeededDeterminism(t *testing.T) {
	run := func() []float64 {
		s, _ := newTestServer(t)
		defer s.Close()
		polID := mustCreatePolicy(t, s, service.CreatePolicyRequest{
			Domain: lineDomain,
			Graph:  service.GraphSpec{Kind: "explicit", Edges: bandEdges()},
		})
		dsID := mustCreateDataset(t, s, service.CreateDatasetRequest{PolicyID: polID, Rows: lineRows(100, 64)})
		sessID := mustCreateSession(t, s, service.CreateSessionRequest{PolicyID: polID, Budget: 5})
		return decode[service.HistogramResponse](t, do(t, s, "POST",
			"/v1/sessions/"+sessID+"/releases/histogram", service.HistogramRequest{DatasetID: dsID, Epsilon: 0.4})).Counts
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("explicit-policy releases diverged across servers with one base seed")
	}
}

func TestComposePolicyKinds(t *testing.T) {
	s, _ := newTestServer(t)
	defer s.Close()

	// Union: line graph plus a wrap-around edge.
	union := decode[service.PolicyResponse](t, do(t, s, "POST", "/v1/policies", service.CreatePolicyRequest{
		Domain: lineDomain,
		Graph: service.GraphSpec{Kind: "compose", Op: "union", Graphs: []service.GraphSpec{
			{Kind: "line"},
			{Kind: "explicit", Edges: [][2][]int{{{0}, {63}}}},
		}},
	}))
	if union.Edges != 64 || union.Components != 1 {
		t.Fatalf("union stats = %+v, want 64 edges, 1 component", union)
	}

	// Intersection: threshold θ=4 ∩ explicit pairs keeps only short pairs.
	inter := decode[service.PolicyResponse](t, do(t, s, "POST", "/v1/policies", service.CreatePolicyRequest{
		Domain: lineDomain,
		Graph: service.GraphSpec{Kind: "compose", Op: "intersect", Graphs: []service.GraphSpec{
			{Kind: "l1", Theta: 4},
			{Kind: "explicit", Edges: [][2][]int{{{0}, {2}}, {{0}, {40}}}},
		}},
	}))
	if inter.Edges != 1 {
		t.Fatalf("intersect edges = %d, want 1", inter.Edges)
	}

	// Product over a grid: free x moves, neighbor-only y moves. The product
	// stays implicit, so no edge stats are reported.
	grid := []service.AttrSpec{{Name: "x", Size: 20}, {Name: "y", Size: 12}}
	prod := decode[service.PolicyResponse](t, do(t, s, "POST", "/v1/policies", service.CreatePolicyRequest{
		Domain: grid,
		Graph: service.GraphSpec{Kind: "compose", Op: "product", Graphs: []service.GraphSpec{
			{Kind: "full"},
			{Kind: "line"},
		}},
	}))
	if prod.Edges != 0 || prod.Components != 0 {
		t.Fatalf("product should report no explicit stats, got %+v", prod)
	}
	if prod.HistogramSensitivity != 2 {
		t.Fatalf("product histogram sensitivity = %v, want 2", prod.HistogramSensitivity)
	}
	dsID := mustCreateDataset(t, s, service.CreateDatasetRequest{PolicyID: prod.ID, Rows: [][]int{{1, 2}, {3, 4}, {19, 11}}})
	sessID := mustCreateSession(t, s, service.CreateSessionRequest{PolicyID: prod.ID, Budget: 2})
	hist := do(t, s, "POST", "/v1/sessions/"+sessID+"/releases/histogram",
		service.HistogramRequest{DatasetID: dsID, Epsilon: 0.5})
	if hist.Code != http.StatusOK {
		t.Fatalf("histogram over product policy: %d %s", hist.Code, hist.Body.String())
	}
}

func TestExplicitPolicyValidation(t *testing.T) {
	s, _ := newTestServer(t)
	defer s.Close()
	cases := []struct {
		name  string
		graph service.GraphSpec
	}{
		{"no edges", service.GraphSpec{Kind: "explicit"}},
		{"self loop", service.GraphSpec{Kind: "explicit", Edges: [][2][]int{{{3}, {3}}}}},
		{"row out of range", service.GraphSpec{Kind: "explicit", Edges: [][2][]int{{{0}, {64}}}}},
		{"row arity", service.GraphSpec{Kind: "explicit", Edges: [][2][]int{{{0, 1}, {2, 3}}}}},
		{"compose bad op", service.GraphSpec{Kind: "compose", Op: "xor", Graphs: []service.GraphSpec{{Kind: "full"}}}},
		{"compose no operands", service.GraphSpec{Kind: "compose", Op: "union"}},
		{"product arity", service.GraphSpec{Kind: "compose", Op: "product", Graphs: []service.GraphSpec{{Kind: "full"}, {Kind: "full"}}}},
	}
	for _, tc := range cases {
		w := do(t, s, "POST", "/v1/policies", service.CreatePolicyRequest{Domain: lineDomain, Graph: tc.graph})
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (body %s)", tc.name, w.Code, w.Body.String())
		}
	}
}

// TestStreamExhaustedPlainPoll is the regression test for the satellite
// bugfix: an exhausted stream polled past its last release WITHOUT wait_ms
// must answer the terminal budget_exhausted error, not an empty 200
// forever (the terminal signal used to be reachable only through the
// long-poll branch).
func TestStreamExhaustedPlainPoll(t *testing.T) {
	s, _ := newTestServer(t)
	defer s.Close()
	polID, dsID := streamFixtureIDs(t, s)
	stID := mustCreateStream(t, s, service.CreateStreamRequest{
		PolicyID:  polID,
		DatasetID: dsID,
		Budget:    0.2,
		Epoch:     service.EpochSpec{Epsilon: 0.1},
	})
	postEvents(t, s, dsID, appendEvents(1, 2, 3))
	for i := 0; i < 2; i++ {
		if w := do(t, s, "POST", "/v1/streams/"+stID+"/epochs", nil); w.Code != http.StatusOK {
			t.Fatalf("close %d: %d %s", i, w.Code, w.Body.String())
		}
	}
	// The third close is refused for budget, which flags the stream as
	// permanently exhausted.
	wantError(t, do(t, s, "POST", "/v1/streams/"+stID+"/epochs", nil), http.StatusConflict, service.CodeBudgetExhausted)
	st := decode[service.StreamResponse](t, do(t, s, "GET", "/v1/streams/"+stID, nil))
	if !st.Exhausted {
		t.Fatalf("stream not exhausted after spending the budget: %+v", st)
	}

	// Buffered releases still drain normally on a plain poll.
	w := do(t, s, "GET", "/v1/streams/"+stID+"/releases", nil)
	drained := decode[service.StreamReleasesResponse](t, w)
	if w.Code != http.StatusOK || len(drained.Releases) != 2 {
		t.Fatalf("drain poll = %d with %d releases, want 200 with 2", w.Code, len(drained.Releases))
	}

	// Past the last release, a plain poll gets the terminal signal.
	w = do(t, s, "GET", "/v1/streams/"+stID+"/releases?since=2", nil)
	wantError(t, w, http.StatusConflict, service.CodeBudgetExhausted)

	// And it stays terminal on repeat polls.
	w = do(t, s, "GET", "/v1/streams/"+stID+"/releases?since=2", nil)
	wantError(t, w, http.StatusConflict, service.CodeBudgetExhausted)
}

// TestRecoveryExplicitPolicy pins the durable path for custom graphs: an
// explicit-graph policy and its session survive a crash-style restart (no
// final checkpoint) with registry stats intact, and the post-recovery
// release is bit-for-bit what a never-crashed server with the same base
// seed would have produced.
func TestRecoveryExplicitPolicy(t *testing.T) {
	dir := t.TempDir()
	cfg := service.Config{Durability: service.DurabilityConfig{Dir: dir, Fsync: "never"}}

	s, err := openServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := service.GraphSpec{Kind: "explicit", Name: "bands", Edges: bandEdges()}
	polID := mustCreatePolicy(t, s, service.CreatePolicyRequest{Domain: lineDomain, Graph: spec})
	dsID := mustCreateDataset(t, s, service.CreateDatasetRequest{PolicyID: polID, Rows: lineRows(150, 64)})
	sessID := mustCreateSession(t, s, service.CreateSessionRequest{PolicyID: polID, Budget: 5})
	pre := decode[service.HistogramResponse](t, do(t, s, "POST",
		"/v1/sessions/"+sessID+"/releases/histogram", service.HistogramRequest{DatasetID: dsID, Epsilon: 0.5}))
	abandon(s) // crash stand-in: WAL only, no snapshot

	r, err := openServer(cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer abandon(r)
	pol := decode[service.PolicyResponse](t, do(t, r, "GET", "/v1/policies/"+polID, nil))
	if pol.Edges != len(bandEdges()) || pol.Components != 1 {
		t.Fatalf("recovered policy stats = %+v", pol)
	}
	sess := decode[service.SessionResponse](t, do(t, r, "GET", "/v1/sessions/"+sessID, nil))
	if sess.Spent != 0.5 {
		t.Fatalf("recovered session spent %v, want 0.5", sess.Spent)
	}
	post := decode[service.HistogramResponse](t, do(t, r, "POST",
		"/v1/sessions/"+sessID+"/releases/histogram", service.HistogramRequest{DatasetID: dsID, Epsilon: 0.5}))

	// Control: the same request sequence on one in-memory server with the
	// crashed server's base seed.
	ctl := newServer(t, service.Config{Seed: cfg.Seed})
	defer ctl.Close()
	cPol := mustCreatePolicy(t, ctl, service.CreatePolicyRequest{Domain: lineDomain, Graph: spec})
	cDS := mustCreateDataset(t, ctl, service.CreateDatasetRequest{PolicyID: cPol, Rows: lineRows(150, 64)})
	cSess := mustCreateSession(t, ctl, service.CreateSessionRequest{PolicyID: cPol, Budget: 5})
	want1 := decode[service.HistogramResponse](t, do(t, ctl, "POST",
		"/v1/sessions/"+cSess+"/releases/histogram", service.HistogramRequest{DatasetID: cDS, Epsilon: 0.5}))
	want2 := decode[service.HistogramResponse](t, do(t, ctl, "POST",
		"/v1/sessions/"+cSess+"/releases/histogram", service.HistogramRequest{DatasetID: cDS, Epsilon: 0.5}))
	if !reflect.DeepEqual(pre.Counts, want1.Counts) {
		t.Fatal("pre-crash explicit release diverges from control")
	}
	if !reflect.DeepEqual(post.Counts, want2.Counts) {
		t.Fatal("post-recovery explicit release diverges from control (ordinal not restored)")
	}
}
