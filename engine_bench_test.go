// Benchmarks for the compiled release engine: the policy is compiled once
// and releases are served from incrementally maintained count vectors, and
// the sharded noise pool lets RunParallel throughput scale with goroutines
// instead of flatlining on a single source mutex. Results are recorded in
// BENCH_engine.json, which also keeps the last numbers of the retired
// pre-engine comparison benches.
package blowfish_test

import (
	"runtime"
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

func benchSession(b *testing.B, pol *blowfish.Policy, shards int) *blowfish.Session {
	b.Helper()
	sess, err := blowfish.NewSessionShards(pol, benchBudget, blowfish.NewSource(2), shards)
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
	sess := benchSession(b, pol, 1)
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
	sess := benchSession(b, pol, 1)
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
	sess := benchSession(b, pol, 1)
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

// BenchmarkEngineRepeatedCumulative measures the Ordered Mechanism on the
// maintained cumulative counts.
func BenchmarkEngineRepeatedCumulative(b *testing.B) {
	pol, ds := benchWorld(b)
	sess := benchSession(b, pol, 1)
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
// throughput on a sharded session: goroutines draw noise from independent
// streams and only the (atomic) budget charge is shared.
func BenchmarkEngineParallelHistogram(b *testing.B) {
	pol, ds := benchWorld(b)
	sharded := benchSession(b, pol, runtime.GOMAXPROCS(0))
	if _, err := sharded.ReleaseHistogram(ds, benchEps); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := sharded.ReleaseHistogram(ds, benchEps); err != nil {
				b.Fatal(err)
			}
		}
	})
}
