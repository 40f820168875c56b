// Package graph provides the small-graph algorithms used by the Blowfish
// constraint machinery of Section 8: directed policy graphs, exact longest
// simple cycle α(G_P), exact longest simple s-t path ξ(G_P), and undirected
// connected components (Theorem 8.6).
//
// Computing α and ξ is NP-hard in general — the paper proves the underlying
// sensitivity problem is NP-hard (Theorem 8.1) — so the exact searches here
// are exponential with pruning and intended for the small policy graphs
// (|Q| up to ~20) that arise from real constraint sets. The practical
// scenarios of Section 8.2 bypass the search entirely via closed forms.
package graph

import "fmt"

// Directed is a simple directed graph on vertices 0..N-1 without parallel
// edges. Self-loops are rejected: policy graphs never contain them (a secret
// pair cannot lift and lower the same count query).
type Directed struct {
	n   int
	adj [][]int
	has map[[2]int]bool
}

// NewDirected creates a directed graph with n vertices and no edges.
func NewDirected(n int) *Directed {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Directed{n: n, adj: make([][]int, n), has: make(map[[2]int]bool)}
}

// N returns the number of vertices.
func (g *Directed) N() int { return g.n }

// M returns the number of edges.
func (g *Directed) M() int { return len(g.has) }

// AddEdge inserts the edge u->v if absent. It returns an error for invalid
// endpoints or self-loops.
func (g *Directed) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if g.has[[2]int{u, v}] {
		return nil
	}
	g.has[[2]int{u, v}] = true
	g.adj[u] = append(g.adj[u], v)
	return nil
}

// HasEdge reports whether u->v is present.
func (g *Directed) HasEdge(u, v int) bool { return g.has[[2]int{u, v}] }

// Succ returns the successor list of u. The returned slice must not be
// modified.
func (g *Directed) Succ(u int) []int { return g.adj[u] }

// LongestSimpleCycle returns α(G): the number of edges in the longest
// simple (vertex-disjoint) directed cycle, or 0 if the graph is acyclic.
func (g *Directed) LongestSimpleCycle() int {
	best := 0
	visited := make([]bool, g.n)
	// A simple cycle is counted once by rooting it at its minimum vertex:
	// the DFS from root r only visits vertices >= r.
	var dfs func(root, u, depth int)
	dfs = func(root, u, depth int) {
		// Upper bound: the current path has depth edges; a completing cycle
		// can add at most one edge per unvisited vertex >= root plus the
		// closing edge back to root.
		if depth+countUnvisitedAtLeast(visited, root)+1 <= best {
			return
		}
		for _, v := range g.adj[u] {
			if v == root {
				if depth+1 > best {
					best = depth + 1
				}
				continue
			}
			if v < root || visited[v] {
				continue
			}
			visited[v] = true
			dfs(root, v, depth+1)
			visited[v] = false
		}
	}
	for r := 0; r < g.n; r++ {
		visited[r] = true
		dfs(r, r, 0)
		visited[r] = false
	}
	return best
}

// LongestSimplePath returns ξ(G; s, t): the number of edges in the longest
// simple directed path from s to t, or -1 if t is unreachable from s.
func (g *Directed) LongestSimplePath(s, t int) int {
	if s < 0 || s >= g.n || t < 0 || t >= g.n {
		return -1
	}
	if s == t {
		return 0
	}
	best := -1
	visited := make([]bool, g.n)
	visited[s] = true
	var dfs func(u, depth int)
	dfs = func(u, depth int) {
		if depth+countUnvisitedAtLeast(visited, 0)+1 <= best {
			return
		}
		for _, v := range g.adj[u] {
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

func countUnvisitedAtLeast(visited []bool, lo int) int {
	n := 0
	for v := lo; v < len(visited); v++ {
		if !visited[v] {
			n++
		}
	}
	return n
}

// Undirected is a simple undirected graph on vertices 0..N-1.
type Undirected struct {
	n   int
	adj [][]int
	has map[[2]int]bool
}

// NewUndirected creates an undirected graph with n vertices and no edges.
func NewUndirected(n int) *Undirected {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Undirected{n: n, adj: make([][]int, n), has: make(map[[2]int]bool)}
}

// M returns the number of edges.
func (g *Undirected) M() int { return len(g.has) }

// AddEdge inserts the undirected edge {u,v} if absent.
func (g *Undirected) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if u > v {
		u, v = v, u
	}
	if g.has[[2]int{u, v}] {
		return nil
	}
	g.has[[2]int{u, v}] = true
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	return nil
}

// HasEdge reports whether {u,v} is present.
func (g *Undirected) HasEdge(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	return g.has[[2]int{u, v}]
}

// Neighbors returns the adjacency list of u; the slice must not be modified.
func (g *Undirected) Neighbors(u int) []int { return g.adj[u] }

// Components labels each vertex with a component id in [0, #components) and
// returns the labels and the size of each component. Isolated vertices form
// singleton components.
func (g *Undirected) Components() (labels []int, sizes []int) {
	labels = make([]int, g.n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []int
	for s := 0; s < g.n; s++ {
		if labels[s] != -1 {
			continue
		}
		id := len(sizes)
		labels[s] = id
		size := 1
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.adj[u] {
				if labels[v] == -1 {
					labels[v] = id
					size++
					queue = append(queue, v)
				}
			}
		}
		sizes = append(sizes, size)
	}
	return labels, sizes
}

// MaxComponentSize returns the number of vertices in the largest connected
// component, or 0 for an empty graph. This is maxcomp(Q) in Theorem 8.6.
func (g *Undirected) MaxComponentSize() int {
	_, sizes := g.Components()
	best := 0
	for _, s := range sizes {
		if s > best {
			best = s
		}
	}
	return best
}

// BFSDistances returns hop distances from s to every vertex (-1 where
// unreachable).
func (g *Undirected) BFSDistances(s int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	if s < 0 || s >= g.n {
		return dist
	}
	dist[s] = 0
	queue := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}
