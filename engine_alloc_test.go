// Allocation budget regressions for the engine's hot release paths: the
// per-plan buffer arena, the slab-backed Ordered Hierarchical release and
// the pooled range decomposition together hold a repeated range release to
// a fixed handful of allocations (it was ~190 before the arena), and the
// other release kinds to the few vectors that genuinely escape to the
// caller. These pins are what BENCH_engine.json's allocs_per_op columns
// record; a regression here silently re-inflates GC pressure on every
// epoch close of a continual-release stream.
// Exact AllocsPerRun pins are excluded from race builds: the race
// detector makes sync.Pool drop items at random, so pooled paths
// legitimately allocate there.
//go:build !race

package blowfish_test

import (
	"testing"

	"blowfish"
	"blowfish/internal/metrics"
)

func TestEngineReleaseAllocBudgets(t *testing.T) {
	dom, err := blowfish.LineDomain("v", 1024)
	if err != nil {
		t.Fatal(err)
	}
	g, err := blowfish.DistanceThreshold(dom, 16)
	if err != nil {
		t.Fatal(err)
	}
	pol := blowfish.NewPolicy(g)
	ds := blowfish.NewDataset(dom)
	src := blowfish.NewSource(3)
	for i := 0; i < 5000; i++ {
		ds.MustAdd(blowfish.Point(src.Int63n(1024)))
	}
	sequential, err := blowfish.NewSession(pol, 1e9, blowfish.NewSource(4))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := blowfish.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	keyed, err := cp.NewKeyedSession(1e9, blowfish.SeedKey(4))
	if err != nil {
		t.Fatal(err)
	}
	// A keyed release reseeds a pooled generator in place, so the keyed
	// session is held to the same budgets as the sequential one.
	t.Run("sequential", func(t *testing.T) { pinReleaseAllocs(t, sequential, ds) })
	t.Run("keyed", func(t *testing.T) { pinReleaseAllocs(t, keyed, ds) })
}

func pinReleaseAllocs(t *testing.T, sess *blowfish.Session, ds *blowfish.Dataset) {
	const eps = 1e-9

	// Prime every cache the releases read: the dataset index, the OH tree
	// layout, the arena's scratch vectors.
	if _, err := sess.NewRangeReleaser(ds, 16, eps); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ReleaseCumulativeHistogram(ds, eps); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ReleaseHistogram(ds, eps); err != nil {
		t.Fatal(err)
	}

	rangeAllocs := testing.AllocsPerRun(100, func() {
		rel, err := sess.NewRangeReleaser(ds, 16, eps)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rel.Range(10, 900); err != nil {
			t.Fatal(err)
		}
	})
	// The ISSUE 7 acceptance bound: slab (1) + release headers (3) +
	// facade (1), plus amortized ledger growth.
	if rangeAllocs > 8 {
		t.Fatalf("range release allocates %v per call, want <= 8", rangeAllocs)
	}

	// The served range path: only its answers escape, so it is held to the
	// histogram path's bound.
	queries := []blowfish.RangeQuery{{Lo: 10, Hi: 900}}
	if _, err := sess.ReleaseRangeAnswers(ds, 16, eps, queries); err != nil {
		t.Fatal(err)
	}
	answerAllocs := testing.AllocsPerRun(100, func() {
		if _, err := sess.ReleaseRangeAnswers(ds, 16, eps, queries); err != nil {
			t.Fatal(err)
		}
	})
	if answerAllocs > 4 {
		t.Fatalf("range answers allocate %v per call, want <= 4", answerAllocs)
	}

	cumAllocs := testing.AllocsPerRun(100, func() {
		if _, err := sess.ReleaseCumulativeHistogram(ds, eps); err != nil {
			t.Fatal(err)
		}
	})
	// raw + inferred escape to the caller plus the isotonic scratch and the
	// facade struct; the staging prefix array itself comes from the arena.
	if cumAllocs > 8 {
		t.Fatalf("cumulative release allocates %v per call, want <= 8", cumAllocs)
	}

	histAllocs := testing.AllocsPerRun(100, func() {
		if _, err := sess.ReleaseHistogram(ds, eps); err != nil {
			t.Fatal(err)
		}
	})
	// The released histogram escapes; nothing else should.
	if histAllocs > 4 {
		t.Fatalf("histogram release allocates %v per call, want <= 4", histAllocs)
	}

	// Re-pin the hottest paths with the engine instruments installed: a
	// release now also does one histogram observation and two counter
	// bumps, all lock-free atomics — the budgets must not move.
	reg := metrics.NewRegistry()
	rel := func(kind string) blowfish.EngineReleaseMetrics {
		return blowfish.EngineReleaseMetrics{
			Latency: reg.Histogram("release_seconds_"+kind, "pin", nil),
			Count:   reg.Counter("releases_total_"+kind, "pin"),
		}
	}
	sess.SetEngineMetrics(&blowfish.EngineMetrics{
		Histogram:  rel("histogram"),
		Cumulative: rel("cumulative"),
		Range:      rel("range"),
		NoiseDraws: reg.Counter("noise_draws_total", "pin"),
	})

	rangeMetered := testing.AllocsPerRun(100, func() {
		rel, err := sess.NewRangeReleaser(ds, 16, eps)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rel.Range(10, 900); err != nil {
			t.Fatal(err)
		}
	})
	if rangeMetered > 8 {
		t.Fatalf("instrumented range release allocates %v per call, want <= 8", rangeMetered)
	}

	answersMetered := testing.AllocsPerRun(100, func() {
		if _, err := sess.ReleaseRangeAnswers(ds, 16, eps, queries); err != nil {
			t.Fatal(err)
		}
	})
	if answersMetered > 4 {
		t.Fatalf("instrumented range answers allocate %v per call, want <= 4", answersMetered)
	}

	histMetered := testing.AllocsPerRun(100, func() {
		if _, err := sess.ReleaseHistogram(ds, eps); err != nil {
			t.Fatal(err)
		}
	})
	if histMetered > 4 {
		t.Fatalf("instrumented histogram release allocates %v per call, want <= 4", histMetered)
	}
}
