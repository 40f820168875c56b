// Benchmarks for custom-policy compilation and explicit-graph releases,
// recorded in BENCH_policy.json and gated by cmd/benchgate in CI:
// registering a custom policy must stay a registration-time cost (a few
// milliseconds for a ~1k-vertex, ~32k-edge graph, most of it lowering the
// edge list), and releases over explicit-graph policies must match the
// built-in kinds' per-release profile — no BFS on the hot path.
package blowfish_test

import (
	"testing"

	"blowfish"
)

const explicitBenchVertices = 1024

// explicitBenchSpec is a banded graph with bridges over a 1024-value line
// domain: ~32k edges in 16 complete bands of 64, the shape the custom-graph
// walkthrough uses.
func explicitBenchSpec(b *testing.B) (*blowfish.Domain, blowfish.GraphSpec) {
	b.Helper()
	dom, err := blowfish.LineDomain("v", explicitBenchVertices)
	if err != nil {
		b.Fatal(err)
	}
	var edges [][2][]int
	const band = 64
	for lo := 0; lo < explicitBenchVertices; lo += band {
		for x := lo; x < lo+band; x++ {
			for y := x + 1; y < lo+band; y++ {
				edges = append(edges, [2][]int{{x}, {y}})
			}
		}
		if lo > 0 {
			edges = append(edges, [2][]int{{lo - 1}, {lo}})
		}
	}
	return dom, blowfish.GraphSpec{Kind: "explicit", Name: "bench-bands", Edges: edges}
}

// BenchmarkPolicyCompileExplicit measures the full registration path for a
// custom policy: spec build (edge-list lowering) plus plan compilation —
// every cached sensitivity and the edge and component counts.
func BenchmarkPolicyCompileExplicit(b *testing.B) {
	dom, spec := explicitBenchSpec(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _, err := blowfish.BuildGraph(dom, spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := blowfish.Compile(blowfish.NewPolicy(g)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineExplicitHistogram measures repeated histogram releases
// over a compiled explicit-graph policy: the sensitivities were paid at
// compile time, so the per-release cost must be the same O(|T|) snapshot +
// noise as the built-in kinds.
func BenchmarkEngineExplicitHistogram(b *testing.B) {
	dom, spec := explicitBenchSpec(b)
	g, _, err := blowfish.BuildGraph(dom, spec)
	if err != nil {
		b.Fatal(err)
	}
	ds := blowfish.NewDataset(dom)
	src := blowfish.NewSource(1)
	for i := 0; i < 100000; i++ {
		ds.MustAdd(blowfish.Point(src.Int63n(explicitBenchVertices)))
	}
	sess, err := blowfish.NewSession(blowfish.NewPolicy(g), benchBudget, blowfish.NewSource(2))
	if err != nil {
		b.Fatal(err)
	}
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

// BenchmarkEngineExplicitRange is the range-release analogue: the Ordered
// Hierarchical layout for the graph-derived θ comes from the plan cache.
func BenchmarkEngineExplicitRange(b *testing.B) {
	dom, spec := explicitBenchSpec(b)
	g, _, err := blowfish.BuildGraph(dom, spec)
	if err != nil {
		b.Fatal(err)
	}
	ds := blowfish.NewDataset(dom)
	src := blowfish.NewSource(1)
	for i := 0; i < 100000; i++ {
		ds.MustAdd(blowfish.Point(src.Int63n(explicitBenchVertices)))
	}
	sess, err := blowfish.NewSession(blowfish.NewPolicy(g), benchBudget, blowfish.NewSource(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := sess.NewRangeReleaser(ds, 16, benchEps)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rel.Range(100, 900); err != nil {
			b.Fatal(err)
		}
	}
}
