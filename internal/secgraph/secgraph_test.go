package secgraph

import (
	"math"
	"testing"

	"blowfish/internal/domain"
)

// allGraphs returns one instance of every implicit specification over a
// small 2-D domain, for cross-checking generic properties.
func allGraphs(t *testing.T) []Graph {
	t.Helper()
	d := domain.MustGrid(5, 4)
	part, err := domain.NewUniformGrid(d, []int{2, 2})
	if err != nil {
		t.Fatalf("NewUniformGrid: %v", err)
	}
	dt, err := NewDistanceThreshold(d, 2)
	if err != nil {
		t.Fatalf("NewDistanceThreshold: %v", err)
	}
	return []Graph{
		NewComplete(d),
		NewAttribute(d),
		NewPartition(part),
		dt,
	}
}

func TestAdjacencyProperties(t *testing.T) {
	for _, g := range allGraphs(t) {
		t.Run(g.Name(), func(t *testing.T) {
			d := g.Domain()
			n := d.Size()
			for x := int64(0); x < n; x++ {
				px := domain.Point(x)
				if g.Adjacent(px, px) {
					t.Fatalf("self-loop at %d", x)
				}
				for y := x + 1; y < n; y++ {
					py := domain.Point(y)
					if g.Adjacent(px, py) != g.Adjacent(py, px) {
						t.Fatalf("asymmetric adjacency at (%d,%d)", x, y)
					}
				}
			}
		})
	}
}

func TestHopDistanceMatchesBFSOnMaterialized(t *testing.T) {
	for _, g := range allGraphs(t) {
		t.Run(g.Name(), func(t *testing.T) {
			e, err := Materialize(g)
			if err != nil {
				t.Fatalf("Materialize: %v", err)
			}
			d := g.Domain()
			n := d.Size()
			for x := int64(0); x < n; x++ {
				for y := int64(0); y < n; y++ {
					px, py := domain.Point(x), domain.Point(y)
					got := g.HopDistance(px, py)
					want := e.HopDistance(px, py)
					if got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
						t.Fatalf("HopDistance(%d,%d) = %v, BFS says %v", x, y, got, want)
					}
				}
			}
		})
	}
}

func TestMaxEdgeDistanceMatchesBruteForce(t *testing.T) {
	for _, g := range allGraphs(t) {
		t.Run(g.Name(), func(t *testing.T) {
			d := g.Domain()
			best := 0.0
			if err := Edges(g, func(x, y domain.Point) bool {
				if dist := d.L1(x, y); dist > best {
					best = dist
				}
				return true
			}); err != nil {
				t.Fatalf("Edges: %v", err)
			}
			if got := g.MaxEdgeDistance(); got != best {
				t.Fatalf("MaxEdgeDistance = %v, brute force says %v", got, best)
			}
		})
	}
}

func TestCompleteGraph(t *testing.T) {
	d := domain.MustLine("v", 10)
	g := NewComplete(d)
	if !g.Adjacent(0, 9) || g.Adjacent(3, 3) {
		t.Fatal("complete adjacency wrong")
	}
	if got, want := g.HopDistance(0, 9), 1.0; got != want {
		t.Fatalf("HopDistance = %v, want %v", got, want)
	}
	if got, want := g.MaxEdgeDistance(), 9.0; got != want {
		t.Fatalf("MaxEdgeDistance = %v, want %v", got, want)
	}
	single := NewComplete(domain.MustLine("v", 1))
	if single.MaxEdgeDistance() != 0 {
		t.Fatal("singleton domain should have no edges")
	}
}

func TestAttributeGraph(t *testing.T) {
	d := domain.MustNew(domain.Attribute{Name: "a", Size: 4}, domain.Attribute{Name: "b", Size: 6})
	g := NewAttribute(d)
	x := d.MustEncode(1, 2)
	sameA := d.MustEncode(1, 5)
	diffBoth := d.MustEncode(2, 3)
	if !g.Adjacent(x, sameA) {
		t.Fatal("one-attribute change not adjacent")
	}
	if g.Adjacent(x, diffBoth) {
		t.Fatal("two-attribute change adjacent")
	}
	if got, want := g.HopDistance(x, diffBoth), 2.0; got != want {
		t.Fatalf("HopDistance = %v, want %v", got, want)
	}
	if got, want := g.MaxEdgeDistance(), 5.0; got != want {
		t.Fatalf("MaxEdgeDistance = %v, want %v", got, want)
	}
}

func TestPartitionGraph(t *testing.T) {
	d := domain.MustLine("v", 8)
	part, err := domain.NewUniformGrid(d, []int{4})
	if err != nil {
		t.Fatalf("NewUniformGrid: %v", err)
	}
	g := NewPartition(part)
	if !g.Adjacent(0, 3) {
		t.Fatal("same-block pair not adjacent")
	}
	if g.Adjacent(3, 4) {
		t.Fatal("cross-block pair adjacent")
	}
	if !math.IsInf(g.HopDistance(0, 7), 1) {
		t.Fatal("cross-block hop distance should be +Inf")
	}
	if got, want := g.MaxEdgeDistance(), 3.0; got != want {
		t.Fatalf("MaxEdgeDistance = %v, want %v", got, want)
	}
	if g.Name() != "partition|2" {
		t.Fatalf("Name = %q", g.Name())
	}
}

func TestDistanceThreshold(t *testing.T) {
	d := domain.MustGrid(10, 10)
	g := MustDistanceThreshold(d, 3)
	a := d.MustEncode(0, 0)
	b := d.MustEncode(1, 2) // L1 = 3
	c := d.MustEncode(2, 2) // L1 = 4
	if !g.Adjacent(a, b) {
		t.Fatal("pair at distance θ not adjacent")
	}
	if g.Adjacent(a, c) {
		t.Fatal("pair beyond θ adjacent")
	}
	// Hop distance = ceil(L1/θ).
	far := d.MustEncode(9, 9) // L1 = 18, ceil(18/3) = 6
	if got, want := g.HopDistance(a, far), 6.0; got != want {
		t.Fatalf("HopDistance = %v, want %v", got, want)
	}
	if got, want := g.MaxEdgeDistance(), 3.0; got != want {
		t.Fatalf("MaxEdgeDistance = %v, want %v", got, want)
	}
	if _, err := NewDistanceThreshold(d, 0); err == nil {
		t.Error("θ=0 accepted")
	}
	if _, err := NewDistanceThreshold(d, math.Inf(1)); err == nil {
		t.Error("θ=Inf accepted")
	}
}

func TestDistanceThresholdHugeThetaClampsToDiameter(t *testing.T) {
	d := domain.MustLine("v", 5)
	g := MustDistanceThreshold(d, 100)
	if got, want := g.MaxEdgeDistance(), 4.0; got != want {
		t.Fatalf("MaxEdgeDistance = %v, want %v", got, want)
	}
	// With θ >= diameter the graph is complete.
	if !g.Adjacent(0, 4) {
		t.Fatal("θ >= diameter should connect extremes")
	}
}

func TestLineGraph(t *testing.T) {
	d := domain.MustLine("v", 6)
	g, err := NewLine(d)
	if err != nil {
		t.Fatalf("NewLine: %v", err)
	}
	if !g.Adjacent(2, 3) || g.Adjacent(2, 4) {
		t.Fatal("line adjacency wrong")
	}
	if got, want := g.HopDistance(0, 5), 5.0; got != want {
		t.Fatalf("HopDistance = %v, want %v", got, want)
	}
	if got, want := g.MaxEdgeDistance(), 1.0; got != want {
		t.Fatalf("MaxEdgeDistance = %v, want %v", got, want)
	}
	if _, err := NewLine(domain.MustGrid(3, 3)); err == nil {
		t.Error("NewLine accepted 2-D domain")
	}
}

func TestExplicitGraph(t *testing.T) {
	d := domain.MustLine("v", 5)
	e, err := NewExplicit(d, "test")
	if err != nil {
		t.Fatalf("NewExplicit: %v", err)
	}
	if err := e.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := e.AddEdge(1, 3); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := e.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := e.AddEdge(0, 9); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if !e.Adjacent(1, 0) {
		t.Fatal("explicit adjacency not symmetric")
	}
	if got, want := e.HopDistance(0, 3), 2.0; got != want {
		t.Fatalf("HopDistance = %v, want %v", got, want)
	}
	if !math.IsInf(e.HopDistance(0, 4), 1) {
		t.Fatal("disconnected pair should be +Inf")
	}
	if got, want := e.MaxEdgeDistance(), 2.0; got != want {
		t.Fatalf("MaxEdgeDistance = %v, want %v", got, want)
	}
	if got, want := e.NumEdges(), 2; got != want {
		t.Fatalf("NumEdges = %d, want %d", got, want)
	}
	// Components: {0,1,3} connected, {2} and {4} isolated.
	if got, want := e.Components(), 3; got != want {
		t.Fatalf("Components = %d, want %d", got, want)
	}
}

func TestEdgesEnumerationCounts(t *testing.T) {
	d := domain.MustLine("v", 7)
	line, err := NewLine(d)
	if err != nil {
		t.Fatalf("NewLine: %v", err)
	}
	n := 0
	if err := Edges(line, func(x, y domain.Point) bool {
		if y != x+1 {
			t.Fatalf("unexpected line edge (%d,%d)", x, y)
		}
		n++
		return true
	}); err != nil {
		t.Fatalf("Edges: %v", err)
	}
	if n != 6 {
		t.Fatalf("line graph has %d edges, want 6", n)
	}
	full := NewComplete(d)
	n = 0
	if err := Edges(full, func(x, y domain.Point) bool { n++; return true }); err != nil {
		t.Fatalf("Edges: %v", err)
	}
	if n != 21 { // 7 choose 2
		t.Fatalf("complete graph has %d edges, want 21", n)
	}
	// Early stop.
	n = 0
	if err := Edges(full, func(x, y domain.Point) bool { n++; return n < 3 }); err != nil {
		t.Fatalf("Edges: %v", err)
	}
	if n != 3 {
		t.Fatalf("early stop enumerated %d, want 3", n)
	}
}

func TestHasAnyEdge(t *testing.T) {
	d := domain.MustLine("v", 4)
	cases := []struct {
		g    Graph
		want bool
	}{
		{NewComplete(d), true},
		{NewComplete(domain.MustLine("v", 1)), false},
		{NewAttribute(d), true},
		{NewAttribute(domain.MustNew(domain.Attribute{Name: "a", Size: 1})), false},
		{MustDistanceThreshold(d, 1), true},
	}
	for _, c := range cases {
		got, err := HasAnyEdge(c.g)
		if err != nil {
			t.Fatalf("HasAnyEdge(%s): %v", c.g.Name(), err)
		}
		if got != c.want {
			t.Errorf("HasAnyEdge(%s) = %v, want %v", c.g.Name(), got, c.want)
		}
	}
	// Identity partition: every block is a singleton, no edges.
	ident, err := domain.Identity(d)
	if err != nil {
		t.Fatalf("Identity: %v", err)
	}
	got, err := HasAnyEdge(NewPartition(ident))
	if err != nil {
		t.Fatalf("HasAnyEdge: %v", err)
	}
	if got {
		t.Error("identity partition graph reported an edge")
	}
	// Empty explicit graph.
	e, err := NewExplicit(d, "")
	if err != nil {
		t.Fatalf("NewExplicit: %v", err)
	}
	got, err = HasAnyEdge(e)
	if err != nil {
		t.Fatalf("HasAnyEdge: %v", err)
	}
	if got {
		t.Error("empty explicit graph reported an edge")
	}
}

func TestMaterializePreservesAdjacency(t *testing.T) {
	d := domain.MustGrid(4, 3)
	g := MustDistanceThreshold(d, 2)
	e, err := Materialize(g)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	for x := int64(0); x < d.Size(); x++ {
		for y := int64(0); y < d.Size(); y++ {
			px, py := domain.Point(x), domain.Point(y)
			if g.Adjacent(px, py) != e.Adjacent(px, py) {
				t.Fatalf("adjacency mismatch at (%d,%d)", x, y)
			}
		}
	}
	if e.Name() != g.Name() {
		t.Fatalf("Name not preserved: %q vs %q", e.Name(), g.Name())
	}
}

func TestAccessors(t *testing.T) {
	d := domain.MustLine("v", 6)
	dt := MustDistanceThreshold(d, 2)
	if dt.Theta() != 2 {
		t.Fatalf("Theta = %v", dt.Theta())
	}
	part, err := domain.NewUniformGrid(d, []int{3})
	if err != nil {
		t.Fatalf("NewUniformGrid: %v", err)
	}
	pg := NewPartition(part)
	if pg.Partition() != part {
		t.Fatal("Partition accessor wrong")
	}
	e, err := NewExplicit(d, "x")
	if err != nil {
		t.Fatalf("NewExplicit: %v", err)
	}
	if e.Domain() != d {
		t.Fatal("Explicit Domain accessor wrong")
	}
	if e.Adjacent(domain.Point(99), 0) {
		t.Fatal("out-of-range point adjacent")
	}
}

func TestEdgesExplicitFastPathEarlyStop(t *testing.T) {
	d := domain.MustLine("v", 5)
	e, err := NewExplicit(d, "x")
	if err != nil {
		t.Fatalf("NewExplicit: %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := e.AddEdge(domain.Point(i), domain.Point(i+1)); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	n := 0
	if err := Edges(e, func(x, y domain.Point) bool { n++; return n < 2 }); err != nil {
		t.Fatalf("Edges: %v", err)
	}
	if n != 2 {
		t.Fatalf("early stop enumerated %d, want 2", n)
	}
	// Huge implicit domains are rejected by Edges.
	huge := NewComplete(domain.MustGrid(10000, 10000))
	if err := Edges(huge, func(x, y domain.Point) bool { return true }); err == nil {
		t.Fatal("oversized edge enumeration accepted")
	}
}

func TestHasAnyEdgeMoreBranches(t *testing.T) {
	// Distance threshold below 1 on an integer lattice: no edges.
	d := domain.MustLine("v", 5)
	frac := MustDistanceThreshold(d, 0.5)
	has, err := HasAnyEdge(frac)
	if err != nil {
		t.Fatalf("HasAnyEdge: %v", err)
	}
	if has {
		t.Fatal("θ=0.5 lattice graph reported an edge")
	}
	// Partition with fewer blocks than values: pigeonhole forces an edge.
	part, err := domain.NewUniformGrid(d, []int{2})
	if err != nil {
		t.Fatalf("NewUniformGrid: %v", err)
	}
	has, err = HasAnyEdge(NewPartition(part))
	if err != nil {
		t.Fatalf("HasAnyEdge: %v", err)
	}
	if !has {
		t.Fatal("coarse partition graph reported no edges")
	}
	// Bottom graph always has edges (⊥ to everything) — via the generic
	// scan branch.
	b, err := NewWithBottom(MustDistanceThreshold(d, 1))
	if err != nil {
		t.Fatalf("NewWithBottom: %v", err)
	}
	has, err = HasAnyEdge(b)
	if err != nil {
		t.Fatalf("HasAnyEdge: %v", err)
	}
	if !has {
		t.Fatal("bottom graph reported no edges")
	}
}
