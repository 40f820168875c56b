// Benchmarks for the compiled release engine: the policy is compiled once
// and releases are served from incrementally maintained count vectors, and
// a keyed session's per-release noise derivation lets RunParallel
// throughput scale with goroutines instead of flatlining on a single
// source. Results are recorded in
// BENCH_engine.json, which also keeps the last numbers of the retired
// pre-engine comparison benches.
package blowfish_test

import (
	"testing"

	"blowfish"
	"blowfish/internal/metrics"
)

const (
	benchDomainSize = 4357 // the adult capital-loss domain used throughout
	benchTuples     = 200000
	benchEps        = 1e-6 // tiny per-release charge so b.N releases fit
	benchBudget     = 1e9
)

// benchWorld builds the shared policy and dataset: a distance-threshold
// policy over a non-trivial line domain with a dataset large enough that
// an O(n) rescan per release would dominate.
func benchWorld(b *testing.B) (*blowfish.Policy, *blowfish.Dataset) {
	b.Helper()
	dom, err := blowfish.LineDomain("v", benchDomainSize)
	if err != nil {
		b.Fatal(err)
	}
	g, err := blowfish.DistanceThreshold(dom, 100)
	if err != nil {
		b.Fatal(err)
	}
	ds := blowfish.NewDataset(dom)
	src := blowfish.NewSource(1)
	for i := 0; i < benchTuples; i++ {
		ds.MustAdd(blowfish.Point(src.Int63n(int64(benchDomainSize))))
	}
	return blowfish.NewPolicy(g), ds
}

func benchSession(b *testing.B, pol *blowfish.Policy) *blowfish.Session {
	b.Helper()
	sess, err := blowfish.NewSession(pol, benchBudget, blowfish.NewSource(2))
	if err != nil {
		b.Fatal(err)
	}
	return sess
}

// BenchmarkEngineRepeatedHistogram measures repeated histogram releases on
// the engine path: the dataset index is built once, every further release
// is an O(|T|) snapshot + noise.
func BenchmarkEngineRepeatedHistogram(b *testing.B) {
	pol, ds := benchWorld(b)
	sess := benchSession(b, pol)
	if _, err := sess.ReleaseHistogram(ds, benchEps); err != nil { // prime the index
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.ReleaseHistogram(ds, benchEps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRepeatedRange measures repeated Ordered Hierarchical
// releases on the engine path: the tree layout comes from the plan cache.
func BenchmarkEngineRepeatedRange(b *testing.B) {
	pol, ds := benchWorld(b)
	sess := benchSession(b, pol)
	if _, err := sess.NewRangeReleaser(ds, 16, benchEps); err != nil { // prime caches
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := sess.NewRangeReleaser(ds, 16, benchEps)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rel.Range(100, 4000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRepeatedRangeMetrics is BenchmarkEngineRepeatedRange with
// the engine's release instruments installed — the benchgate holds the
// per-release instrumentation cost (one histogram observation + two
// counter bumps) inside the hot-path regression threshold.
func BenchmarkEngineRepeatedRangeMetrics(b *testing.B) {
	pol, ds := benchWorld(b)
	sess := benchSession(b, pol)
	reg := metrics.NewRegistry()
	sess.SetEngineMetrics(&blowfish.EngineMetrics{
		Range: blowfish.EngineReleaseMetrics{
			Latency: reg.Histogram("release_seconds", "bench", nil),
			Count:   reg.Counter("releases_total", "bench"),
		},
		NoiseDraws: reg.Counter("noise_draws_total", "bench"),
	})
	if _, err := sess.NewRangeReleaser(ds, 16, benchEps); err != nil { // prime caches
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := sess.NewRangeReleaser(ds, 16, benchEps)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rel.Range(100, 4000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRangeAnswers measures the served range path at
// loadbench's shape: |T| = 1024, θ = 16, fanout 16, 200,000 rows and one
// query per release, answered from only the nodes it reads.
func BenchmarkEngineRangeAnswers(b *testing.B) {
	dom, err := blowfish.LineDomain("v", 1024)
	if err != nil {
		b.Fatal(err)
	}
	g, err := blowfish.DistanceThreshold(dom, 16)
	if err != nil {
		b.Fatal(err)
	}
	ds := blowfish.NewDataset(dom)
	src := blowfish.NewSource(1)
	for i := 0; i < benchTuples; i++ {
		ds.MustAdd(blowfish.Point(src.Int63n(1024)))
	}
	sess := benchSession(b, blowfish.NewPolicy(g))
	queries := []blowfish.RangeQuery{{Lo: 100, Hi: 900}}
	if _, err := sess.ReleaseRangeAnswers(ds, 16, benchEps, queries); err != nil { // prime caches
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.ReleaseRangeAnswers(ds, 16, benchEps, queries); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRepeatedCumulative measures the Ordered Mechanism on the
// maintained cumulative counts.
func BenchmarkEngineRepeatedCumulative(b *testing.B) {
	pol, ds := benchWorld(b)
	sess := benchSession(b, pol)
	if _, err := sess.ReleaseCumulativeHistogram(ds, benchEps); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.ReleaseCumulativeHistogram(ds, benchEps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineParallelHistogram measures multi-goroutine release
// throughput on a keyed session: each release derives its own generator
// from the session key and its ordinal, and only the (atomic) budget
// charge is shared.
func BenchmarkEngineParallelHistogram(b *testing.B) {
	pol, ds := benchWorld(b)
	cp, err := blowfish.Compile(pol)
	if err != nil {
		b.Fatal(err)
	}
	keyed, err := cp.NewKeyedSession(benchBudget, blowfish.SeedKey(2))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := keyed.ReleaseHistogram(ds, benchEps); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := keyed.ReleaseHistogram(ds, benchEps); err != nil {
				b.Fatal(err)
			}
		}
	})
}
