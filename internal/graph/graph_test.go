package graph

import (
	"math/rand"
	"testing"
)

func mustAdd(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
}

func TestDirectedBasics(t *testing.T) {
	g := NewDirected(4)
	mustAdd(t, g.AddEdge(0, 1))
	mustAdd(t, g.AddEdge(1, 2))
	mustAdd(t, g.AddEdge(0, 1)) // duplicate: no-op
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("HasEdge wrong")
	}
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 9); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func TestLongestSimpleCycle(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges [][2]int
		want  int
	}{
		{"empty", 3, nil, 0},
		{"dag", 4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}}, 0},
		{"two-cycle", 2, [][2]int{{0, 1}, {1, 0}}, 2},
		{"triangle", 3, [][2]int{{0, 1}, {1, 2}, {2, 0}}, 3},
		{"triangle plus chord 2cycle", 3, [][2]int{{0, 1}, {1, 2}, {2, 0}, {1, 0}}, 3},
		{"two disjoint cycles", 7, [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 2}}, 5},
		{"complete K4 both directions", 4, [][2]int{
			{0, 1}, {1, 0}, {0, 2}, {2, 0}, {0, 3}, {3, 0},
			{1, 2}, {2, 1}, {1, 3}, {3, 1}, {2, 3}, {3, 2}}, 4},
		{"figure8 shares vertex", 5, [][2]int{{0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 4}, {4, 0}}, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := NewDirected(c.n)
			for _, e := range c.edges {
				mustAdd(t, g.AddEdge(e[0], e[1]))
			}
			if got := g.LongestSimpleCycle(); got != c.want {
				t.Fatalf("LongestSimpleCycle = %d, want %d", got, c.want)
			}
		})
	}
}

func TestLongestSimplePath(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges [][2]int
		s, tv int
		want  int
	}{
		{"unreachable", 3, [][2]int{{0, 1}}, 0, 2, -1},
		{"direct", 2, [][2]int{{0, 1}}, 0, 1, 1},
		{"longer detour wins", 4, [][2]int{{0, 3}, {0, 1}, {1, 2}, {2, 3}}, 0, 3, 3},
		{"s equals t", 3, [][2]int{{0, 1}}, 1, 1, 0},
		{"diamond", 6, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}, {0, 5}}, 0, 5, 4},
		{"cycle does not help simple path", 4, [][2]int{{0, 1}, {1, 2}, {2, 1}, {2, 3}}, 0, 3, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := NewDirected(c.n)
			for _, e := range c.edges {
				mustAdd(t, g.AddEdge(e[0], e[1]))
			}
			if got := g.LongestSimplePath(c.s, c.tv); got != c.want {
				t.Fatalf("LongestSimplePath(%d,%d) = %d, want %d", c.s, c.tv, got, c.want)
			}
		})
	}
}

// Brute-force reference: enumerate all simple cycles/paths by unpruned DFS.
func bruteCycle(g *Directed) int {
	best := 0
	n := g.N()
	visited := make([]bool, n)
	var dfs func(root, u, depth int)
	dfs = func(root, u, depth int) {
		for _, v := range g.Succ(u) {
			if v == root && depth+1 > best {
				best = depth + 1
			}
			if v <= root || visited[v] {
				continue
			}
			visited[v] = true
			dfs(root, v, depth+1)
			visited[v] = false
		}
	}
	for r := 0; r < n; r++ {
		visited[r] = true
		dfs(r, r, 0)
		visited[r] = false
	}
	return best
}

func brutePath(g *Directed, s, t int) int {
	if s == t {
		return 0
	}
	best := -1
	visited := make([]bool, g.N())
	visited[s] = true
	var dfs func(u, depth int)
	dfs = func(u, depth int) {
		for _, v := range g.Succ(u) {
			if v == t {
				if depth+1 > best {
					best = depth + 1
				}
				continue
			}
			if visited[v] {
				continue
			}
			visited[v] = true
			dfs(v, depth+1)
			visited[v] = false
		}
	}
	dfs(s, 0)
	return best
}

func TestCycleAndPathAgainstBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(7)
		g := NewDirected(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.35 {
					mustAdd(t, g.AddEdge(u, v))
				}
			}
		}
		if got, want := g.LongestSimpleCycle(), bruteCycle(g); got != want {
			t.Fatalf("trial %d: LongestSimpleCycle = %d, want %d", trial, got, want)
		}
		s, tv := rng.Intn(n), rng.Intn(n)
		if got, want := g.LongestSimplePath(s, tv), brutePath(g, s, tv); got != want {
			t.Fatalf("trial %d: LongestSimplePath(%d,%d) = %d, want %d", trial, s, tv, got, want)
		}
	}
}

func TestUndirectedComponents(t *testing.T) {
	g := NewUndirected(7)
	mustAdd(t, g.AddEdge(0, 1))
	mustAdd(t, g.AddEdge(1, 2))
	mustAdd(t, g.AddEdge(3, 4))
	// 5 and 6 isolated.
	labels, sizes := g.Components()
	if len(sizes) != 4 {
		t.Fatalf("components = %d, want 4 (sizes %v)", len(sizes), sizes)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("chain 0-1-2 split across components")
	}
	if labels[3] != labels[4] {
		t.Fatal("edge 3-4 split across components")
	}
	if labels[5] == labels[6] {
		t.Fatal("isolated vertices merged")
	}
	if g.MaxComponentSize() != 3 {
		t.Fatalf("MaxComponentSize = %d, want 3", g.MaxComponentSize())
	}
}

func TestUndirectedBasics(t *testing.T) {
	g := NewUndirected(3)
	mustAdd(t, g.AddEdge(0, 1))
	mustAdd(t, g.AddEdge(1, 0)) // duplicate in reverse: no-op
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if !g.HasEdge(1, 0) {
		t.Fatal("HasEdge not symmetric")
	}
	if err := g.AddEdge(2, 2); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Error("negative vertex accepted")
	}
}

func TestBFSDistances(t *testing.T) {
	g := NewUndirected(6)
	mustAdd(t, g.AddEdge(0, 1))
	mustAdd(t, g.AddEdge(1, 2))
	mustAdd(t, g.AddEdge(2, 3))
	mustAdd(t, g.AddEdge(0, 4))
	dist := g.BFSDistances(0)
	want := []int{0, 1, 2, 3, 1, -1}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], want[i])
		}
	}
}

func TestEmptyGraphs(t *testing.T) {
	d := NewDirected(0)
	if d.LongestSimpleCycle() != 0 {
		t.Error("empty directed graph has a cycle")
	}
	u := NewUndirected(0)
	if u.MaxComponentSize() != 0 {
		t.Error("empty undirected graph has a component")
	}
}
