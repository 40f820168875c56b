package secgraph

import (
	"encoding/json"
	"math"
	"testing"

	"blowfish/internal/domain"
)

func lineDom(t testing.TB, size int) *domain.Domain {
	t.Helper()
	d, err := domain.Line("v", size)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSpecBuildsBuiltinKinds(t *testing.T) {
	d := lineDom(t, 16)
	grid, err := domain.Grid(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		spec Spec
		dom  *domain.Domain
		name string
	}{
		{Spec{Kind: "full"}, d, "full"},
		{Spec{Kind: "attr"}, grid, "attr"},
		{Spec{Kind: "line"}, d, "L1|θ=1"},
		{Spec{Kind: "l1", Theta: 3}, d, "L1|θ=3"},
		{Spec{Kind: "linf", Theta: 2}, grid, "Linf|θ=2"},
	}
	for _, tc := range cases {
		g, part, err := tc.spec.Build(tc.dom)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec.Kind, err)
		}
		if part != nil {
			t.Fatalf("%s: unexpected partition", tc.spec.Kind)
		}
		if g.Name() != tc.name {
			t.Fatalf("%s: name %q, want %q", tc.spec.Kind, g.Name(), tc.name)
		}
	}
	g, part, err := (Spec{Kind: "partition", Blocks: 4}).Build(d)
	if err != nil {
		t.Fatal(err)
	}
	if part == nil || g.(*PartitionGraph).Partition() != part {
		t.Fatal("partition spec did not return its partition")
	}
}

func TestSpecExplicitRoundTripsJSON(t *testing.T) {
	d := lineDom(t, 8)
	spec := Spec{
		Kind:  "explicit",
		Name:  "bands",
		Edges: [][2][]int{{{0}, {1}}, {{1}, {2}}, {{5}, {6}}},
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	g, _, err := back.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	e := g.(*Explicit)
	if e.Name() != "bands" || e.NumEdges() != 3 {
		t.Fatalf("rebuilt graph = %s with %d edges", e.Name(), e.NumEdges())
	}
	if !e.Adjacent(0, 1) || !e.Adjacent(5, 6) || e.Adjacent(0, 2) {
		t.Fatal("rebuilt adjacency wrong")
	}
	// 0-1-2 is one component; hop distance follows the path.
	if got := e.HopDistance(0, 2); got != 2 {
		t.Fatalf("HopDistance(0,2) = %v, want 2", got)
	}
	if got := e.HopDistance(0, 5); !math.IsInf(got, 1) {
		t.Fatalf("HopDistance(0,5) = %v, want +Inf", got)
	}
	if got := e.Components(); got != 5 {
		t.Fatalf("components = %d, want 5 (0-1-2, 5-6, {3}, {4}, {7})", got)
	}
}

func TestSpecExplicitValidation(t *testing.T) {
	d := lineDom(t, 8)
	cases := []struct {
		name string
		spec Spec
	}{
		{"no edges", Spec{Kind: "explicit"}},
		{"self loop", Spec{Kind: "explicit", Edges: [][2][]int{{{3}, {3}}}}},
		{"out of range", Spec{Kind: "explicit", Edges: [][2][]int{{{0}, {99}}}}},
		{"wrong arity", Spec{Kind: "explicit", Edges: [][2][]int{{{0, 1}, {2, 3}}}}},
		{"unknown kind", Spec{Kind: "banana"}},
		{"missing kind", Spec{}},
		{"compose without op", Spec{Kind: "compose", Graphs: []Spec{{Kind: "full"}}}},
		{"compose without operands", Spec{Kind: "compose", Op: "union"}},
	}
	for _, tc := range cases {
		if _, _, err := tc.spec.Build(d); err == nil {
			t.Fatalf("%s: validated", tc.name)
		}
	}
}

func TestSpecUnionIntersect(t *testing.T) {
	d := lineDom(t, 10)
	union := Spec{Kind: "compose", Op: "union", Graphs: []Spec{
		{Kind: "line"},
		{Kind: "explicit", Edges: [][2][]int{{{0}, {9}}}},
	}}
	g, _, err := union.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	e := g.(*Explicit)
	if !e.Adjacent(3, 4) || !e.Adjacent(0, 9) {
		t.Fatal("union lost an operand edge")
	}
	if e.NumEdges() != 10 {
		t.Fatalf("union edges = %d, want 10 (9 line + 1 wrap)", e.NumEdges())
	}
	// The wrap edge makes the graph a cycle: 0 and 9 are one hop apart.
	if got := e.HopDistance(0, 9); got != 1 {
		t.Fatalf("HopDistance(0,9) = %v, want 1", got)
	}

	inter := Spec{Kind: "compose", Op: "intersect", Graphs: []Spec{
		{Kind: "l1", Theta: 2},
		{Kind: "explicit", Edges: [][2][]int{{{0}, {1}}, {{0}, {5}}}},
	}}
	g, _, err = inter.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	e = g.(*Explicit)
	if e.NumEdges() != 1 || !e.Adjacent(0, 1) {
		t.Fatalf("intersect edges = %d, want only {0,1} (distance 5 exceeds θ=2)", e.NumEdges())
	}
}

func TestSpecProduct(t *testing.T) {
	grid, err := domain.Grid(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	// x moves freely (full factor), y only between neighbors (line factor).
	spec := Spec{Kind: "compose", Op: "product", Graphs: []Spec{
		{Kind: "full"},
		{Kind: "line"},
	}}
	g, _, err := spec.Build(grid)
	if err != nil {
		t.Fatal(err)
	}
	p := g.(*Product)
	at := func(x, y int) domain.Point { return grid.MustEncode(x, y) }
	if !p.Adjacent(at(0, 0), at(4, 0)) {
		t.Fatal("full x-factor should connect any x at fixed y")
	}
	if !p.Adjacent(at(2, 1), at(2, 2)) || p.Adjacent(at(2, 0), at(2, 2)) {
		t.Fatal("line y-factor should connect only neighboring y")
	}
	if p.Adjacent(at(0, 0), at(1, 1)) {
		t.Fatal("product edges change exactly one attribute")
	}
	// Hop distance is the sum of factor distances: 1 (any x hop) + 3 (y 0→3).
	if got := p.HopDistance(at(0, 0), at(4, 3)); got != 4 {
		t.Fatalf("HopDistance = %v, want 4", got)
	}
	// Largest edge: the full x-factor spans 4; the line y-factor spans 1.
	if got := p.MaxEdgeDistance(); got != 4 {
		t.Fatalf("MaxEdgeDistance = %v, want 4", got)
	}
	has, err := HasAnyEdge(p)
	if err != nil || !has {
		t.Fatalf("HasAnyEdge = %v, %v", has, err)
	}
	// The materialized product must agree with the implicit one edge-for-edge.
	mat, err := Materialize(p)
	if err != nil {
		t.Fatal(err)
	}
	for x := int64(0); x < grid.Size(); x++ {
		for y := x + 1; y < grid.Size(); y++ {
			px, py := domain.Point(x), domain.Point(y)
			if mat.Adjacent(px, py) != p.Adjacent(px, py) {
				t.Fatalf("materialized product disagrees at (%d,%d)", x, y)
			}
		}
	}
}

func TestSpecProductMatchesAttributeGraph(t *testing.T) {
	grid, err := domain.Grid(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Kind: "compose", Op: "product", Graphs: []Spec{{Kind: "full"}, {Kind: "full"}}}
	g, _, err := spec.Build(grid)
	if err != nil {
		t.Fatal(err)
	}
	attr := NewAttribute(grid)
	for x := int64(0); x < grid.Size(); x++ {
		for y := int64(0); y < grid.Size(); y++ {
			px, py := domain.Point(x), domain.Point(y)
			if g.Adjacent(px, py) != attr.Adjacent(px, py) {
				t.Fatalf("product-of-full disagrees with S^attr at (%d,%d)", x, y)
			}
			if g.HopDistance(px, py) != attr.HopDistance(px, py) {
				t.Fatalf("product-of-full hop distance disagrees at (%d,%d)", x, y)
			}
		}
	}
	if g.MaxEdgeDistance() != attr.MaxEdgeDistance() {
		t.Fatal("product-of-full MaxEdgeDistance disagrees with S^attr")
	}
}

// TestSpecVertexCap pins the DoS guard: explicit and composed specs refuse
// per-vertex allocation over oversized domains before any state exists.
func TestSpecVertexCap(t *testing.T) {
	big, err := domain.Line("v", MaxSpecVertices+1)
	if err != nil {
		t.Fatal(err)
	}
	edge := [][2][]int{{{0}, {1}}}
	if _, _, err := (Spec{Kind: "explicit", Edges: edge}).Build(big); err == nil {
		t.Fatal("explicit spec built over an oversized domain")
	}
	union := Spec{Kind: "compose", Op: "union", Graphs: []Spec{{Kind: "line"}}}
	if _, _, err := union.Build(big); err == nil {
		t.Fatal("union spec built over an oversized domain")
	}
	if _, err := Intersect(big, "", NewComplete(big)); err == nil {
		t.Fatal("Intersect allocated over an oversized domain")
	}
}

func TestProductHopDistanceOutOfRange(t *testing.T) {
	grid, err := domain.Grid(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := (Spec{Kind: "compose", Op: "product", Graphs: []Spec{{Kind: "full"}, {Kind: "line"}}}).Build(grid)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.HopDistance(domain.Point(grid.Size()), 0); !math.IsInf(got, 1) {
		t.Fatalf("HopDistance(out-of-range, 0) = %v, want +Inf (not a panic)", got)
	}
	if got := g.HopDistance(0, -1); !math.IsInf(got, 1) {
		t.Fatalf("HopDistance(0, -1) = %v, want +Inf", got)
	}
}

// TestMaterializeCapConsistent pins the satellite bugfix: the Materialize
// guard is the named MaxMaterializeVertices constant (whose square is
// EdgeLimit), not an ad-hoc literal disagreeing with NewExplicit.
func TestMaterializeCapConsistent(t *testing.T) {
	if MaxMaterializeVertices*MaxMaterializeVertices != EdgeLimit {
		t.Fatalf("MaxMaterializeVertices² = %d, want EdgeLimit %d",
			MaxMaterializeVertices*MaxMaterializeVertices, EdgeLimit)
	}
	big, err := domain.Line("v", MaxMaterializeVertices+1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Materialize(NewComplete(big)); err == nil {
		t.Fatal("materialized past the cap")
	}
	ok, err := domain.Line("v", 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Materialize(NewComplete(ok)); err != nil {
		t.Fatal(err)
	}
}

// TestExplicitHopDistanceMemoInvalidation pins the satellite bugfix: hop
// distances are memoized per source and invalidated by AddEdge.
func TestExplicitHopDistanceMemoInvalidation(t *testing.T) {
	d := lineDom(t, 6)
	e, err := NewExplicit(d, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := e.AddEdge(domain.Point(i), domain.Point(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.HopDistance(0, 4); got != 4 {
		t.Fatalf("HopDistance(0,4) = %v, want 4", got)
	}
	// The memo must not serve the stale path after a shortcut appears.
	if err := e.AddEdge(0, 4); err != nil {
		t.Fatal(err)
	}
	if got := e.HopDistance(0, 4); got != 1 {
		t.Fatalf("HopDistance(0,4) after shortcut = %v, want 1 (stale memo?)", got)
	}
	if got := e.HopDistance(0, 3); got != 2 {
		t.Fatalf("HopDistance(0,3) = %v, want 2 via the shortcut", got)
	}
}

// ring builds a cycle over n vertices: every BFS touches the whole graph,
// the worst case for the un-memoized all-pairs loop.
func ring(tb testing.TB, n int) *Explicit {
	tb.Helper()
	d, err := domain.Line("v", n)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := NewExplicit(d, "ring")
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := e.AddEdge(domain.Point(i), domain.Point((i+1)%n)); err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

// BenchmarkExplicitAllPairsHopDistance measures the all-pairs sensitivity
// loop the memoization satellite targets: without the per-source memo every
// pair re-runs BFS (O(V²·(V+E))); with it each source pays BFS once.
func BenchmarkExplicitAllPairsHopDistance(b *testing.B) {
	const n = 256
	e := ring(b, n)
	b.ReportAllocs()
	for b.Loop() {
		var sum float64
		for x := 0; x < n; x++ {
			for y := x + 1; y < n; y++ {
				sum += e.HopDistance(domain.Point(x), domain.Point(y))
			}
		}
		if sum == 0 {
			b.Fatal("ring distances summed to zero")
		}
	}
}

// BenchmarkExplicitAllPairsHopDistanceCold clears the memo every iteration:
// the pre-fix cost profile, kept as the comparison baseline.
func BenchmarkExplicitAllPairsHopDistanceCold(b *testing.B) {
	const n = 256
	e := ring(b, n)
	b.ReportAllocs()
	for b.Loop() {
		// Re-adding an existing edge is an adjacency no-op but drops the
		// memo, reproducing the un-memoized behavior per iteration... except
		// within the iteration the memo still helps. Truly cold behavior
		// needs one eviction per query:
		var sum float64
		for x := 0; x < n; x++ {
			for y := x + 1; y < n; y++ {
				if err := e.AddEdge(0, 1); err != nil { // memo invalidation
					b.Fatal(err)
				}
				sum += e.HopDistance(domain.Point(x), domain.Point(y))
			}
		}
		if sum == 0 {
			b.Fatal("ring distances summed to zero")
		}
	}
}
