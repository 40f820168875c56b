package engine

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"blowfish/internal/composition"
	"blowfish/internal/domain"
	"blowfish/internal/noise"
	"blowfish/internal/policy"
	"blowfish/internal/secgraph"
)

// randomExplicit builds a random explicit graph over a line domain of the
// given size: each vertex pair is an edge with probability p.
func randomExplicit(t testing.TB, rng *rand.Rand, size int, p float64) (*domain.Domain, *secgraph.Explicit) {
	t.Helper()
	d, err := domain.Line("v", size)
	if err != nil {
		t.Fatal(err)
	}
	g, err := secgraph.NewExplicit(d, "random")
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < size; x++ {
		for y := x + 1; y < size; y++ {
			if rng.Float64() < p {
				if err := g.AddEdge(domain.Point(x), domain.Point(y)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return d, g
}

// TestExplicitPlanSensitivitiesMatchOracle is the tentpole property test:
// on random explicit graphs, every sensitivity the plan compiles must equal
// the exhaustive Definition 4.1 oracle's answer. The oracle enumerates
// neighboring databases directly, so agreement here means the compiled
// fast path calibrates exactly the noise the definition demands.
func TestExplicitPlanSensitivitiesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 7))
	for trial := 0; trial < 25; trial++ {
		size := 4 + rng.IntN(5)                 // |T| in [4, 8]
		p := []float64{0, 0.2, 0.5, 1}[trial%4] // include edgeless and complete
		_, g := randomExplicit(t, rng, size, p)
		pol := policy.New(g)
		plan, err := Compile(pol)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := policy.NewOracle(pol, 2)
		if err != nil {
			t.Fatal(err)
		}

		histogram := func(ds *domain.Dataset) []float64 {
			h, err := ds.Histogram()
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		wantHist := oracle.Sensitivity(histogram)
		gotHist, err := plan.HistogramSensitivity()
		if err != nil {
			t.Fatal(err)
		}
		if gotHist != wantHist {
			t.Fatalf("trial %d (|T|=%d, m=%d): histogram sensitivity %v, oracle %v",
				trial, size, g.NumEdges(), gotHist, wantHist)
		}

		cumulative := func(ds *domain.Dataset) []float64 {
			c, err := ds.CumulativeHistogram()
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		wantCum := oracle.Sensitivity(cumulative)
		gotCum, err := plan.CumulativeSensitivity()
		if err != nil {
			t.Fatal(err)
		}
		if gotCum != wantCum {
			t.Fatalf("trial %d (|T|=%d, m=%d): cumulative sensitivity %v, oracle %v",
				trial, size, g.NumEdges(), gotCum, wantCum)
		}

		// Linear query with random weights: S = max|w| · maxEdge.
		w := make([]float64, 2)
		for i := range w {
			w[i] = rng.Float64()*4 - 2
		}
		linear := func(ds *domain.Dataset) []float64 {
			var sum float64
			for i := 0; i < ds.Len(); i++ {
				sum += w[i] * float64(ds.At(i))
			}
			return []float64{sum}
		}
		wantLin := oracle.Sensitivity(linear)
		gotLin, err := pol.LinearQuerySensitivity(w)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gotLin-wantLin) > 1e-9 {
			t.Fatalf("trial %d: linear sensitivity %v, oracle %v (w=%v)", trial, gotLin, wantLin, w)
		}
	}
}

// TestExplicitPlanCompileMemory pins what compiling an explicit policy
// costs: the plan keeps the edge and component counts that policy responses
// report and nothing per vertex pair. The graph has 2048 vertices, each
// joined to the next 8 (16,348 edges); the 4 MiB bound is a quarter of what
// one int32 per vertex pair would take.
func TestExplicitPlanCompileMemory(t *testing.T) {
	const size, band = 2048, 8
	d, err := domain.Line("v", size)
	if err != nil {
		t.Fatal(err)
	}
	g, err := secgraph.NewExplicit(d, "banded")
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < size; x++ {
		for y := x + 1; y <= x+band && y < size; y++ {
			if err := g.AddEdge(domain.Point(x), domain.Point(y)); err != nil {
				t.Fatal(err)
			}
		}
	}
	pol := policy.New(g)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	plan, err := Compile(pol)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const maxBytes = 4 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Compile allocated %.3f MiB", float64(got)/(1<<20))
	if got > maxBytes {
		t.Errorf("Compile allocated %.2f MiB, want at most %d MiB", float64(got)/(1<<20), maxBytes>>20)
	}

	edges, comps, ok := plan.ExplicitStats()
	if !ok {
		t.Fatal("ExplicitStats not ok for an explicit graph")
	}
	if edges != 16348 || comps != 1 {
		t.Fatalf("stats (%d, %d), want (16348, 1)", edges, comps)
	}
}

// TestExplicitRangeThetaIsSubgraphSafe pins the range-release calibration:
// θ is ceil of the longest edge, so the explicit graph is a subgraph of
// S^{d,θ} — every secret pair's hop distance under the threshold graph is
// no larger than the budget split assumes.
func TestExplicitRangeThetaIsSubgraphSafe(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 2))
	for trial := 0; trial < 10; trial++ {
		d, g := randomExplicit(t, rng, 12+rng.IntN(20), 0.1)
		pol := policy.New(g)
		theta, err := RangeTheta(pol)
		if err != nil {
			t.Fatal(err)
		}
		if theta < 1 || int64(theta) > d.Size() {
			t.Fatalf("theta = %d out of range", theta)
		}
		err = secgraph.Edges(g, func(x, y domain.Point) bool {
			if d.L1(x, y) > float64(theta) {
				t.Fatalf("edge (%d,%d) spans %v > θ=%d: not a subgraph of the threshold graph",
					x, y, d.L1(x, y), theta)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestExplicitPlanServesReleases smoke-tests the four release kinds end to
// end through an engine over an explicit-graph plan.
func TestExplicitPlanServesReleases(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	d, g := randomExplicit(t, rng, 32, 0.15)
	plan, err := Compile(policy.New(g))
	if err != nil {
		t.Fatal(err)
	}
	acct, err := composition.NewAccountant(100)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(plan, acct, noise.NewSource(1))
	if err != nil {
		t.Fatal(err)
	}
	ds := domain.NewDataset(d)
	for i := 0; i < 100; i++ {
		ds.MustAdd(domain.Point(i % 32))
	}
	idx, err := eng.Index(ds)
	if err != nil {
		t.Fatal(err)
	}
	if h, err := eng.ReleaseHistogram(idx, 0.5); err != nil || len(h) != 32 {
		t.Fatalf("histogram: %v (len %d)", err, len(h))
	}
	if raw, inf, err := eng.ReleaseCumulative(idx, 0.5); err != nil || len(raw) != 32 || len(inf) != 32 {
		t.Fatalf("cumulative: %v", err)
	}
	rel, err := eng.NewRangeRelease(idx, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rel.Range(3, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.PrivateKMeans(idx, 2, 3, 0.5); err != nil {
		t.Fatal(err)
	}
}
