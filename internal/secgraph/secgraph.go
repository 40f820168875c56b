// Package secgraph implements discriminative secret graphs — the G in a
// Blowfish policy P = (T, G, I_Q).
//
// The vertices of G are the domain values; an edge (x, y) means an adversary
// must not be able to distinguish whether an individual's tuple is x or y
// (Section 3.1). The package provides the paper's standard specifications:
//
//   - Complete            — full-domain secrets S^full (differential privacy)
//   - AttributeGraph      — per-attribute secrets S^attr
//   - PartitionGraph      — partitioned secrets S^P
//   - DistanceThreshold   — metric secrets S^{d,θ} under L1 (line graph at θ=1
//     on one-dimensional domains)
//   - Explicit            — arbitrary adjacency lists for small domains
//
// Graphs over huge domains (e.g. 256³) are represented implicitly: adjacency
// and hop distance are O(m) per query and nothing per-value is materialized.
package secgraph

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"blowfish/internal/domain"
	"blowfish/internal/graph"
)

// Graph is a discriminative secret graph over a domain.
type Graph interface {
	// Domain returns the vertex domain T.
	Domain() *domain.Domain
	// Name identifies the specification, e.g. "full", "attr", "L1,θ=100".
	Name() string
	// Adjacent reports whether (x, y) is a discriminative pair. It is
	// symmetric and false for x == y.
	Adjacent(x, y domain.Point) bool
	// HopDistance returns d_G(x, y): the number of edges on a shortest
	// x-y path, 0 for x == y, and +Inf when x and y are disconnected.
	// Unconstrained Blowfish mechanisms distinguish x from y with budget at
	// most ε·d_G(x,y) (Eq. 9), so hop distance quantifies the protection
	// gradient of a policy.
	HopDistance(x, y domain.Point) float64
	// MaxEdgeDistance returns the largest L1 distance between the endpoints
	// of any edge, or 0 for an edgeless graph. Lemma 6.1 makes this the
	// half-sensitivity of the k-means qsum query; on one-dimensional ordered
	// domains it is also the sensitivity of the cumulative histogram.
	MaxEdgeDistance() float64
}

// Complete is the full-domain specification S^full (Eq. 4): every pair of
// distinct values is a secret pair, recovering differential privacy
// (Section 4.2).
type Complete struct {
	dom *domain.Domain
}

// NewComplete returns the complete graph over d.
func NewComplete(d *domain.Domain) *Complete { return &Complete{dom: d} }

// Domain implements Graph.
func (c *Complete) Domain() *domain.Domain { return c.dom }

// Name implements Graph.
func (c *Complete) Name() string { return "full" }

// Adjacent implements Graph.
func (c *Complete) Adjacent(x, y domain.Point) bool { return x != y }

// HopDistance implements Graph.
func (c *Complete) HopDistance(x, y domain.Point) float64 {
	if x == y {
		return 0
	}
	return 1
}

// MaxEdgeDistance implements Graph: the domain diameter d(T).
func (c *Complete) MaxEdgeDistance() float64 {
	if c.dom.Size() < 2 {
		return 0
	}
	return c.dom.Diameter()
}

// AttributeGraph is the per-attribute specification S^attr (Eq. 5): two
// values are adjacent when they differ in exactly one attribute, so an
// adversary cannot pin down any single attribute of an individual although
// combinations degrade gracefully with hop distance (= number of differing
// attributes).
type AttributeGraph struct {
	dom *domain.Domain
}

// NewAttribute returns the attribute graph over d.
func NewAttribute(d *domain.Domain) *AttributeGraph { return &AttributeGraph{dom: d} }

// Domain implements Graph.
func (a *AttributeGraph) Domain() *domain.Domain { return a.dom }

// Name implements Graph.
func (a *AttributeGraph) Name() string { return "attr" }

// Adjacent implements Graph.
func (a *AttributeGraph) Adjacent(x, y domain.Point) bool {
	return x != y && a.dom.HammingAttrs(x, y) == 1
}

// HopDistance implements Graph: the number of differing attributes.
func (a *AttributeGraph) HopDistance(x, y domain.Point) float64 {
	return float64(a.dom.HammingAttrs(x, y))
}

// MaxEdgeDistance implements Graph: max_A (|A|-1), the largest change a
// single attribute flip can make.
func (a *AttributeGraph) MaxEdgeDistance() float64 {
	// An edge exists only if some attribute has size >= 2.
	best := 0.0
	for i := 0; i < a.dom.NumAttrs(); i++ {
		if r := float64(a.dom.Attr(i).Size - 1); r > best {
			best = r
		}
	}
	return best
}

// PartitionGraph is the partitioned specification S^P (Eq. 6): each block of
// the partition induces a complete subgraph and there are no edges across
// blocks, so an adversary may learn an individual's block but nothing finer.
type PartitionGraph struct {
	part domain.Partition
}

// NewPartition returns the partition graph for part.
func NewPartition(part domain.Partition) *PartitionGraph { return &PartitionGraph{part: part} }

// Partition returns the underlying partition.
func (p *PartitionGraph) Partition() domain.Partition { return p.part }

// Domain implements Graph.
func (p *PartitionGraph) Domain() *domain.Domain { return p.part.Domain() }

// Name implements Graph.
func (p *PartitionGraph) Name() string {
	return fmt.Sprintf("partition|%d", p.part.NumBlocks())
}

// Adjacent implements Graph.
func (p *PartitionGraph) Adjacent(x, y domain.Point) bool {
	return x != y && p.part.Block(x) == p.part.Block(y)
}

// HopDistance implements Graph: 1 within a block, +Inf across blocks —
// values in different partitions may be fully distinguished (Section 4).
func (p *PartitionGraph) HopDistance(x, y domain.Point) float64 {
	if x == y {
		return 0
	}
	if p.part.Block(x) == p.part.Block(y) {
		return 1
	}
	return math.Inf(1)
}

// MaxEdgeDistance implements Graph: the largest block diameter max_j d(Pj).
func (p *PartitionGraph) MaxEdgeDistance() float64 { return p.part.BlockDiameter() }

// DistanceThreshold is the metric specification S^{d,θ} (Eq. 7) under the
// L1 (Manhattan) metric on attribute indexes: values at distance at most θ
// are adjacent. Pairs farther apart are protected with budget degrading as
// ε·ceil(d/θ) (Eq. 9). On a one-dimensional domain with θ = 1 this is the
// line graph of the ordered mechanism (Section 7.1).
type DistanceThreshold struct {
	dom   *domain.Domain
	theta float64
}

// NewDistanceThreshold returns the L1 threshold graph with the given θ > 0.
func NewDistanceThreshold(d *domain.Domain, theta float64) (*DistanceThreshold, error) {
	if theta <= 0 || math.IsNaN(theta) || math.IsInf(theta, 0) {
		return nil, fmt.Errorf("secgraph: invalid distance threshold %v", theta)
	}
	return &DistanceThreshold{dom: d, theta: theta}, nil
}

// MustDistanceThreshold is NewDistanceThreshold but panics on error.
func MustDistanceThreshold(d *domain.Domain, theta float64) *DistanceThreshold {
	g, err := NewDistanceThreshold(d, theta)
	if err != nil {
		panic(err)
	}
	return g
}

// NewLine returns the line graph G^{d,1} over a one-dimensional ordered
// domain: adjacent domain values form the only secret pairs (Section 7.1).
func NewLine(d *domain.Domain) (*DistanceThreshold, error) {
	if d.NumAttrs() != 1 {
		return nil, errors.New("secgraph: line graph requires a one-dimensional domain")
	}
	return NewDistanceThreshold(d, 1)
}

// Theta returns the distance threshold θ.
func (g *DistanceThreshold) Theta() float64 { return g.theta }

// Domain implements Graph.
func (g *DistanceThreshold) Domain() *domain.Domain { return g.dom }

// Name implements Graph.
func (g *DistanceThreshold) Name() string { return fmt.Sprintf("L1|θ=%g", g.theta) }

// Adjacent implements Graph.
func (g *DistanceThreshold) Adjacent(x, y domain.Point) bool {
	return x != y && g.dom.L1(x, y) <= g.theta
}

// HopDistance implements Graph. Because the L1 lattice admits monotone
// stepwise paths, the hop distance is exactly ceil(d(x,y)/θ).
func (g *DistanceThreshold) HopDistance(x, y domain.Point) float64 {
	if x == y {
		return 0
	}
	return math.Ceil(g.dom.L1(x, y) / g.theta)
}

// MaxEdgeDistance implements Graph: min(θ, d(T)) — θ itself unless the
// domain is smaller than the threshold.
func (g *DistanceThreshold) MaxEdgeDistance() float64 {
	if g.dom.Size() < 2 {
		return 0
	}
	if d := g.dom.Diameter(); d < g.theta {
		return d
	}
	// θ may be fractional; the largest realizable edge length is the
	// largest integer L1 distance not exceeding θ.
	return math.Floor(g.theta)
}

// maxMemoBytes caps the total memory the per-source BFS memo of one
// Explicit graph may hold (each entry is |T| int32s, so the source cap is
// maxMemoBytes / 4|T| — a byte bound, not a count bound, so huge domains
// cannot accumulate gigabytes of slices). Beyond the cap an arbitrary
// entry is evicted; eviction only costs a recomputation, never changes
// results.
const maxMemoBytes = 64 << 20

// Explicit is an arbitrary secret graph given by adjacency lists. It
// materializes per-vertex state and is restricted to small domains; it backs
// unit tests, the constraint machinery, and custom policies.
type Explicit struct {
	dom  *domain.Domain
	und  *graph.Undirected
	name string
	// maxEdge caches MaxEdgeDistance.
	maxEdge float64

	// mu guards dist, the memoized per-source hop-distance slices. Without
	// the memo every HopDistance call runs a fresh single-source BFS, which
	// turns all-pairs sensitivity loops into O(V²·(V+E)); with it each
	// source pays BFS once until AddEdge invalidates the cache.
	mu   sync.RWMutex
	dist map[int][]int32
}

// NewExplicit creates an empty explicit graph over d.
func NewExplicit(d *domain.Domain, name string) (*Explicit, error) {
	if d.Size() > domain.MaxMaterializedSize {
		return nil, domain.ErrDomainTooLarge
	}
	if name == "" {
		name = "explicit"
	}
	return &Explicit{dom: d, und: graph.NewUndirected(int(d.Size())), name: name}, nil
}

// AddEdge inserts the secret pair {x, y}. It invalidates any memoized hop
// distances: graphs are normally built fully before first use, so the
// invalidation is free on the common path.
func (e *Explicit) AddEdge(x, y domain.Point) error {
	if !e.dom.Contains(x) || !e.dom.Contains(y) {
		return domain.ErrPointOutOfRange
	}
	if err := e.und.AddEdge(int(x), int(y)); err != nil {
		return fmt.Errorf("secgraph: %w", err)
	}
	if d := e.dom.L1(x, y); d > e.maxEdge {
		e.maxEdge = d
	}
	e.mu.Lock()
	e.dist = nil
	e.mu.Unlock()
	return nil
}

// MaxMaterializeVertices caps the domain size Materialize accepts. The
// binding cost of materialization is the |T|² pair scan, so the cap is the
// square root of EdgeLimit — the same bound Edges applies to implicit
// graphs, and far tighter than NewExplicit's domain.MaxMaterializedSize
// guard, which only bounds per-vertex state.
const MaxMaterializeVertices = 1 << 12 // MaxMaterializeVertices² == EdgeLimit

// Materialize copies any Graph into an Explicit graph by enumerating all
// vertex pairs; it fails for domains above MaxMaterializeVertices, whose
// |T|² pair scan would exceed EdgeLimit.
func Materialize(g Graph) (*Explicit, error) {
	d := g.Domain()
	if d.Size() > MaxMaterializeVertices {
		return nil, fmt.Errorf("secgraph: refusing to materialize %d vertices (%d² pairs exceed the %d pair-scan limit)",
			d.Size(), d.Size(), int64(EdgeLimit))
	}
	e, err := NewExplicit(d, g.Name())
	if err != nil {
		return nil, err
	}
	n := d.Size()
	for x := int64(0); x < n; x++ {
		for y := x + 1; y < n; y++ {
			if g.Adjacent(domain.Point(x), domain.Point(y)) {
				if err := e.AddEdge(domain.Point(x), domain.Point(y)); err != nil {
					return nil, err
				}
			}
		}
	}
	return e, nil
}

// Domain implements Graph.
func (e *Explicit) Domain() *domain.Domain { return e.dom }

// Name implements Graph.
func (e *Explicit) Name() string { return e.name }

// Adjacent implements Graph.
func (e *Explicit) Adjacent(x, y domain.Point) bool {
	if !e.dom.Contains(x) || !e.dom.Contains(y) {
		return false
	}
	return e.und.HasEdge(int(x), int(y))
}

// HopDistance implements Graph via BFS, memoizing one distance slice per
// source so all-pairs loops pay O(V·(V+E)) instead of O(V²·(V+E)).
func (e *Explicit) HopDistance(x, y domain.Point) float64 {
	if x == y {
		return 0
	}
	if !e.dom.Contains(x) || !e.dom.Contains(y) {
		return math.Inf(1)
	}
	dist := e.DistancesFrom(x)
	if d := dist[int(y)]; d >= 0 {
		return float64(d)
	}
	return math.Inf(1)
}

// DistancesFrom returns the hop distances from x to every vertex (-1 where
// unreachable): one single-source BFS per source, memoized, so later calls
// serve the same slice. The returned slice is shared and must not be
// modified.
func (e *Explicit) DistancesFrom(x domain.Point) []int32 {
	s := int(x)
	e.mu.RLock()
	dist, ok := e.dist[s]
	e.mu.RUnlock()
	if ok {
		return dist
	}
	raw := e.und.BFSDistances(s)
	dist = make([]int32, len(raw))
	for i, d := range raw {
		dist[i] = int32(d)
	}
	maxSources := maxMemoBytes / (4 * len(dist))
	if maxSources < 1 {
		maxSources = 1
	}
	e.mu.Lock()
	if e.dist == nil {
		e.dist = make(map[int][]int32)
	}
	if cached, ok := e.dist[s]; ok {
		dist = cached // a racing computation won; share its slice
	} else {
		if len(e.dist) >= maxSources {
			for k := range e.dist {
				delete(e.dist, k)
				break
			}
		}
		e.dist[s] = dist
	}
	e.mu.Unlock()
	return dist
}

// MaxEdgeDistance implements Graph.
func (e *Explicit) MaxEdgeDistance() float64 { return e.maxEdge }

// NumEdges returns the number of secret pairs.
func (e *Explicit) NumEdges() int { return e.und.M() }

// Components returns the number of connected components (isolated vertices
// included); PartitionGraph-like structure emerges when > 1.
func (e *Explicit) Components() int {
	_, sizes := e.und.Components()
	return len(sizes)
}

// EdgeLimit bounds how many vertex pairs Edges will scan for implicit
// graphs: |T|² must not exceed it.
const EdgeLimit = 1 << 24

// Edges enumerates the edges (x, y), x < y, of any Graph, calling fn for
// each; enumeration stops early when fn returns false. For Explicit graphs
// it walks adjacency lists; for implicit graphs it scans all vertex pairs
// and therefore requires |T|² <= EdgeLimit.
func Edges(g Graph, fn func(x, y domain.Point) bool) error {
	if e, ok := g.(*Explicit); ok {
		n := e.dom.Size()
		for x := int64(0); x < n; x++ {
			for _, y := range e.und.Neighbors(int(x)) {
				if int64(y) > x {
					if !fn(domain.Point(x), domain.Point(y)) {
						return nil
					}
				}
			}
		}
		return nil
	}
	d := g.Domain()
	if d.Size()*d.Size() > EdgeLimit {
		return fmt.Errorf("secgraph: domain %v too large for edge enumeration: %w", d, domain.ErrDomainTooLarge)
	}
	n := d.Size()
	for x := int64(0); x < n; x++ {
		for y := x + 1; y < n; y++ {
			if g.Adjacent(domain.Point(x), domain.Point(y)) {
				if !fn(domain.Point(x), domain.Point(y)) {
					return nil
				}
			}
		}
	}
	return nil
}

// HasAnyEdge reports whether g has at least one edge; the complete
// histogram sensitivity is 0 for edgeless graphs and 2 otherwise
// (footnote 4 / Section 5).
func HasAnyEdge(g Graph) (bool, error) {
	switch t := g.(type) {
	case *Explicit:
		return t.NumEdges() > 0, nil
	case *Complete:
		return t.dom.Size() >= 2, nil
	case *AttributeGraph:
		for i := 0; i < t.dom.NumAttrs(); i++ {
			if t.dom.Attr(i).Size >= 2 {
				return true, nil
			}
		}
		return false, nil
	case *DistanceThreshold:
		return t.dom.Size() >= 2 && t.theta >= 1, nil
	case *Product:
		// A factor edge (x_i, y_i) lifts to a product edge with every
		// choice of the remaining attributes, so the product has an edge
		// iff some factor does.
		for _, f := range t.factors {
			has, err := HasAnyEdge(f)
			if err != nil {
				return false, err
			}
			if has {
				return true, nil
			}
		}
		return false, nil
	case *PartitionGraph:
		// An edge exists iff some block holds two values. With fewer blocks
		// than values this is forced by pigeonhole; otherwise a positive
		// block diameter witnesses a two-point block and a zero diameter
		// means every block is a singleton. (A conservative upper-bound
		// diameter can only err toward reporting an edge.)
		if int64(t.part.NumBlocks()) < t.Domain().Size() {
			return true, nil
		}
		return t.part.BlockDiameter() > 0, nil
	}
	found := false
	err := Edges(g, func(x, y domain.Point) bool {
		found = true
		return false
	})
	return found, err
}
