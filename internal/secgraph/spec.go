package secgraph

// Serializable secret-graph specifications. A Spec is the declarative,
// JSON-encodable form of a policy's G: the paper's built-in specifications
// by name, arbitrary edge lists, and composition operators (union and
// intersection of specs, per-attribute product graphs). The HTTP server
// journals Specs verbatim in its write-ahead log and snapshots, and the
// recovery path rebuilds the identical graph from the declaration — so a
// Spec must deterministically produce the same graph on every Build.

import (
	"errors"
	"fmt"
	"math"

	"blowfish/internal/domain"
)

// Spec limits: hostile or runaway declarations are refused before any
// per-vertex state is allocated.
const (
	// MaxSpecEdges caps the number of edges an explicit or composed graph
	// may declare or accumulate.
	MaxSpecEdges = 1 << 22
	// MaxSpecVertices caps the domain size of an explicit or composed
	// (materialized) graph. NewExplicit's own domain.MaxMaterializedSize
	// guard (1<<26) bounds what the library can hold, but explicit
	// construction allocates per-vertex adjacency and component state —
	// this tighter cap keeps a small hostile request (the server builds
	// specs from unauthenticated policy uploads) from allocating gigabytes.
	MaxSpecVertices = 1 << 20
	// maxSpecDepth caps composition nesting.
	maxSpecDepth = 8
	// maxSpecOperands caps the operand list of one union/intersect node.
	maxSpecOperands = 16
)

// Spec is a serializable secret-graph specification over a domain declared
// elsewhere. Kinds:
//
//	full      — S^full, the complete graph (ε-differential privacy)
//	attr      — S^attr, per-attribute secrets
//	line      — G^{d,1}, the line graph over a 1-D ordered domain
//	l1        — S^{d,θ} under the L1 metric; requires Theta
//	linf      — S^{d,θ} under the L∞ metric; requires Theta
//	partition — S^P over a uniform grid partition; requires Blocks or Widths
//	explicit  — arbitrary adjacency given by Edges (pairs of value tuples)
//	compose   — Op ("union", "intersect" or "product") over Graphs
//
// Union and intersection materialize their operands into an explicit graph
// (vertex-pair scans are capped by EdgeLimit and the edge count by
// MaxSpecEdges), so hop distances on the composed graph are exact BFS
// distances. A product composes one 1-D spec per attribute into an implicit
// Cartesian-product graph that works over domains far too large to
// materialize.
type Spec struct {
	Kind string `json:"kind"`
	// Name optionally labels the built graph (diagnostics, Policy.Name).
	Name string `json:"name,omitempty"`
	// Theta is the distance threshold for kinds l1 and linf.
	Theta float64 `json:"theta,omitempty"`
	// Blocks is the approximate block count for kind partition.
	Blocks int `json:"blocks,omitempty"`
	// Widths gives explicit per-attribute cell widths for kind partition;
	// it takes precedence over Blocks.
	Widths []int `json:"widths,omitempty"`
	// Edges lists the secret pairs of kind explicit. Each edge is a pair of
	// value tuples, one int per domain attribute — the same row encoding
	// dataset uploads use.
	Edges [][2][]int `json:"edges,omitempty"`
	// Op selects the composition operator for kind compose: "union",
	// "intersect" or "product".
	Op string `json:"op,omitempty"`
	// Graphs holds the operands of kind compose. For union/intersect each
	// operand is a spec over the same domain; for product there is exactly
	// one operand per attribute, built over that attribute's 1-D subdomain.
	Graphs []Spec `json:"graphs,omitempty"`
}

// Build constructs the secret graph s declares over d. For kind partition
// the underlying partition is returned alongside (nil otherwise).
func (s Spec) Build(d *domain.Domain) (Graph, domain.Partition, error) {
	if d == nil {
		return nil, nil, errors.New("secgraph: spec requires a domain")
	}
	return s.build(d, 0)
}

func (s Spec) build(d *domain.Domain, depth int) (Graph, domain.Partition, error) {
	if depth > maxSpecDepth {
		return nil, nil, fmt.Errorf("secgraph: spec nesting exceeds depth %d", maxSpecDepth)
	}
	switch s.Kind {
	case "full":
		return NewComplete(d), nil, nil
	case "attr":
		return NewAttribute(d), nil, nil
	case "line":
		g, err := NewLine(d)
		return g, nil, err
	case "l1":
		g, err := NewDistanceThreshold(d, s.Theta)
		return g, nil, err
	case "linf":
		g, err := NewLInfThreshold(d, s.Theta)
		return g, nil, err
	case "partition":
		var part domain.Partition
		var err error
		switch {
		case len(s.Widths) > 0:
			part, err = domain.NewUniformGrid(d, s.Widths)
		case s.Blocks > 0:
			part, err = domain.NewUniformGridByCount(d, s.Blocks)
		default:
			err = errors.New("secgraph: partition spec needs blocks or widths")
		}
		if err != nil {
			return nil, nil, err
		}
		return NewPartition(part), part, nil
	case "explicit":
		g, err := s.buildExplicit(d)
		return g, nil, err
	case "compose":
		g, err := s.buildCompose(d, depth)
		return g, nil, err
	case "":
		return nil, nil, errors.New("secgraph: spec is missing a kind")
	default:
		return nil, nil, fmt.Errorf("secgraph: unknown spec kind %q (want full, attr, line, l1, linf, partition, explicit or compose)", s.Kind)
	}
}

// buildExplicit lowers an edge list into an Explicit graph, encoding each
// value tuple through the domain so malformed rows fail with the offending
// edge index.
func (s Spec) buildExplicit(d *domain.Domain) (*Explicit, error) {
	if len(s.Edges) == 0 {
		return nil, errors.New("secgraph: explicit spec needs at least one edge")
	}
	if len(s.Edges) > MaxSpecEdges {
		return nil, fmt.Errorf("secgraph: explicit spec declares %d edges (limit %d)", len(s.Edges), MaxSpecEdges)
	}
	if err := checkSpecVertices(d); err != nil {
		return nil, err
	}
	e, err := NewExplicit(d, s.Name)
	if err != nil {
		return nil, err
	}
	for i, edge := range s.Edges {
		x, err := d.Encode(edge[0]...)
		if err != nil {
			return nil, fmt.Errorf("secgraph: edge %d endpoint 0: %w", i, err)
		}
		y, err := d.Encode(edge[1]...)
		if err != nil {
			return nil, fmt.Errorf("secgraph: edge %d endpoint 1: %w", i, err)
		}
		if x == y {
			return nil, fmt.Errorf("secgraph: edge %d is a self-loop (a value cannot be a secret pair with itself)", i)
		}
		if err := e.AddEdge(x, y); err != nil {
			return nil, fmt.Errorf("secgraph: edge %d: %w", i, err)
		}
	}
	return e, nil
}

// buildCompose dispatches the composition operators.
func (s Spec) buildCompose(d *domain.Domain, depth int) (Graph, error) {
	if len(s.Graphs) == 0 {
		return nil, errors.New("secgraph: compose spec needs operand graphs")
	}
	switch s.Op {
	case "union", "intersect":
		if len(s.Graphs) > maxSpecOperands {
			return nil, fmt.Errorf("secgraph: compose spec has %d operands (limit %d)", len(s.Graphs), maxSpecOperands)
		}
		ops := make([]Graph, len(s.Graphs))
		for i, sub := range s.Graphs {
			g, _, err := sub.build(d, depth+1)
			if err != nil {
				return nil, fmt.Errorf("secgraph: compose operand %d: %w", i, err)
			}
			ops[i] = g
		}
		if s.Op == "union" {
			return Union(d, s.Name, ops...)
		}
		return Intersect(d, s.Name, ops...)
	case "product":
		if len(s.Graphs) != d.NumAttrs() {
			return nil, fmt.Errorf("secgraph: product spec has %d factor graphs for %d attributes", len(s.Graphs), d.NumAttrs())
		}
		factors := make([]Graph, len(s.Graphs))
		for i, sub := range s.Graphs {
			attr := d.Attr(i)
			sub1d, err := domain.Line(attr.Name, attr.Size)
			if err != nil {
				return nil, fmt.Errorf("secgraph: product factor %d: %w", i, err)
			}
			g, _, err := sub.build(sub1d, depth+1)
			if err != nil {
				return nil, fmt.Errorf("secgraph: product factor %d: %w", i, err)
			}
			factors[i] = g
		}
		return NewProduct(d, s.Name, factors)
	case "":
		return nil, errors.New("secgraph: compose spec is missing an op (union, intersect or product)")
	default:
		return nil, fmt.Errorf("secgraph: unknown compose op %q (want union, intersect or product)", s.Op)
	}
}

// checkSpecVertices refuses per-vertex allocation over oversized domains.
func checkSpecVertices(d *domain.Domain) error {
	if d.Size() > MaxSpecVertices {
		return fmt.Errorf("secgraph: domain of %d values exceeds the %d-vertex limit for explicit graphs", d.Size(), int64(MaxSpecVertices))
	}
	return nil
}

// addCapped inserts an edge into e, enforcing the composed-edge budget.
func addCapped(e *Explicit, x, y domain.Point) error {
	if e.NumEdges() >= MaxSpecEdges {
		return fmt.Errorf("secgraph: composed graph exceeds %d edges", MaxSpecEdges)
	}
	return e.AddEdge(x, y)
}

// Union materializes the edge union of the operand graphs into an Explicit
// graph over d. Every operand must live over d; implicit operands are
// enumerated through Edges and therefore require |T|² <= EdgeLimit.
func Union(d *domain.Domain, name string, ops ...Graph) (*Explicit, error) {
	if len(ops) == 0 {
		return nil, errors.New("secgraph: union of zero graphs")
	}
	if err := checkSpecVertices(d); err != nil {
		return nil, err
	}
	if name == "" {
		name = fmt.Sprintf("union|%d", len(ops))
	}
	e, err := NewExplicit(d, name)
	if err != nil {
		return nil, err
	}
	for i, g := range ops {
		if !d.Equal(g.Domain()) {
			return nil, fmt.Errorf("secgraph: union operand %d is over a different domain", i)
		}
		var addErr error
		err := Edges(g, func(x, y domain.Point) bool {
			addErr = addCapped(e, x, y)
			return addErr == nil
		})
		if err != nil {
			return nil, fmt.Errorf("secgraph: union operand %d: %w", i, err)
		}
		if addErr != nil {
			return nil, addErr
		}
	}
	return e, nil
}

// Intersect materializes the edge intersection of the operand graphs into
// an Explicit graph over d: a pair is a secret iff every operand declares
// it. The first operand drives the enumeration, so leading with an explicit
// graph avoids the |T|² scan entirely.
func Intersect(d *domain.Domain, name string, ops ...Graph) (*Explicit, error) {
	if len(ops) == 0 {
		return nil, errors.New("secgraph: intersection of zero graphs")
	}
	if err := checkSpecVertices(d); err != nil {
		return nil, err
	}
	if name == "" {
		name = fmt.Sprintf("intersect|%d", len(ops))
	}
	for i, g := range ops {
		if !d.Equal(g.Domain()) {
			return nil, fmt.Errorf("secgraph: intersect operand %d is over a different domain", i)
		}
	}
	e, err := NewExplicit(d, name)
	if err != nil {
		return nil, err
	}
	var addErr error
	err = Edges(ops[0], func(x, y domain.Point) bool {
		for _, g := range ops[1:] {
			if !g.Adjacent(x, y) {
				return true
			}
		}
		addErr = addCapped(e, x, y)
		return addErr == nil
	})
	if err != nil {
		return nil, fmt.Errorf("secgraph: intersect operand 0: %w", err)
	}
	if addErr != nil {
		return nil, addErr
	}
	return e, nil
}

// Product is the Cartesian (box) product of per-attribute secret graphs:
// two values are adjacent when they differ in exactly one attribute and
// that attribute's factor graph declares the projected pair a secret. It
// generalizes S^attr (the product of complete factors) and the grid
// neighborhood graphs, stays implicit — nothing per-vertex is materialized,
// so it works over huge domains — and its hop distance is the exact sum of
// per-factor hop distances (the standard Cartesian-product metric).
type Product struct {
	dom     *domain.Domain
	factors []Graph
	name    string
	maxEdge float64
}

// NewProduct composes one factor graph per attribute of d. factors[i] must
// live over a one-dimensional domain of attribute i's size.
func NewProduct(d *domain.Domain, name string, factors []Graph) (*Product, error) {
	if len(factors) != d.NumAttrs() {
		return nil, fmt.Errorf("secgraph: product needs %d factors, got %d", d.NumAttrs(), len(factors))
	}
	maxEdge := 0.0
	for i, f := range factors {
		fd := f.Domain()
		if fd.NumAttrs() != 1 || fd.Size() != int64(d.Attr(i).Size) {
			return nil, fmt.Errorf("secgraph: product factor %d must be over a 1-D domain of size %d", i, d.Attr(i).Size)
		}
		// An edge changes one attribute; its L1 length in the product
		// domain equals its length in the factor domain.
		if m := f.MaxEdgeDistance(); m > maxEdge {
			maxEdge = m
		}
	}
	if name == "" {
		name = fmt.Sprintf("product|%d", len(factors))
	}
	return &Product{dom: d, factors: factors, name: name, maxEdge: maxEdge}, nil
}

// Domain implements Graph.
func (p *Product) Domain() *domain.Domain { return p.dom }

// Name implements Graph.
func (p *Product) Name() string { return p.name }

// Adjacent implements Graph: exactly one attribute differs, and the factor
// graph of that attribute declares the projected pair a secret.
func (p *Product) Adjacent(x, y domain.Point) bool {
	if x == y || !p.dom.Contains(x) || !p.dom.Contains(y) {
		return false
	}
	if p.dom.HammingAttrs(x, y) != 1 {
		return false
	}
	for i := range p.factors {
		xi, yi := p.dom.Value(x, i), p.dom.Value(y, i)
		if xi != yi {
			return p.factors[i].Adjacent(domain.Point(xi), domain.Point(yi))
		}
	}
	return false
}

// HopDistance implements Graph: in a Cartesian product, shortest paths
// change one attribute per step, so d(x, y) = Σ_i d_i(x_i, y_i); any
// disconnected factor pair disconnects the product pair.
func (p *Product) HopDistance(x, y domain.Point) float64 {
	if x == y {
		return 0
	}
	if !p.dom.Contains(x) || !p.dom.Contains(y) {
		return math.Inf(1)
	}
	var sum float64
	for i, f := range p.factors {
		xi, yi := p.dom.Value(x, i), p.dom.Value(y, i)
		if xi == yi {
			continue
		}
		sum += f.HopDistance(domain.Point(xi), domain.Point(yi))
	}
	return sum
}

// MaxEdgeDistance implements Graph: the largest factor edge length.
func (p *Product) MaxEdgeDistance() float64 { return p.maxEdge }
