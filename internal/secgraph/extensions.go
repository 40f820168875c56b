package secgraph

import (
	"errors"
	"fmt"
	"math"

	"blowfish/internal/domain"
)

// BottomGraph implements the unknown-cardinality extension sketched at the
// end of Section 3.1: a distinguished value ⊥ ("the individual is not in
// the dataset") is appended to a one-dimensional ordered domain, and the
// secrets s_⊥^i = "individual i is absent" join the policy by connecting ⊥
// to every real value. Mechanisms over the extended domain then protect
// presence itself, not just values: a tuple moving from x to ⊥ is an
// ordinary neighbor transition.
//
// The extended domain has size |T|+1 with ⊥ at index |T|. Histogram
// releases over it carry the usual sensitivity 2; cumulative releases pay
// max(base, |T|) because an appearance/disappearance shifts up to |T|
// prefix counts — the quantitative price of hiding membership.
type BottomGraph struct {
	base Graph
	ext  *domain.Domain
}

// NewWithBottom wraps a base graph over a one-dimensional ordered domain.
func NewWithBottom(base Graph) (*BottomGraph, error) {
	d := base.Domain()
	if d.NumAttrs() != 1 {
		return nil, errors.New("secgraph: the ⊥ extension requires a one-dimensional ordered domain")
	}
	if d.Size() >= math.MaxInt32 {
		return nil, errors.New("secgraph: domain too large to extend")
	}
	ext, err := domain.Line(d.Attr(0).Name+"+bottom", int(d.Size())+1)
	if err != nil {
		return nil, err
	}
	return &BottomGraph{base: base, ext: ext}, nil
}

// Bottom returns the ⊥ point of the extended domain.
func (b *BottomGraph) Bottom() domain.Point { return domain.Point(b.ext.Size() - 1) }

// Domain implements Graph: the extended domain including ⊥.
func (b *BottomGraph) Domain() *domain.Domain { return b.ext }

// Name implements Graph.
func (b *BottomGraph) Name() string { return b.base.Name() + "+⊥" }

// Adjacent implements Graph: ⊥ is adjacent to every real value; real pairs
// follow the base graph.
func (b *BottomGraph) Adjacent(x, y domain.Point) bool {
	if x == y || !b.ext.Contains(x) || !b.ext.Contains(y) {
		return false
	}
	bot := b.Bottom()
	if x == bot || y == bot {
		return true
	}
	return b.base.Adjacent(x, y)
}

// HopDistance implements Graph: ⊥ is one hop from everything, so any two
// real values are at most two hops apart (through disappearing and
// reappearing), and closer if the base graph says so.
func (b *BottomGraph) HopDistance(x, y domain.Point) float64 {
	if x == y {
		return 0
	}
	bot := b.Bottom()
	if x == bot || y == bot {
		return 1
	}
	if d := b.base.HopDistance(x, y); d < 2 {
		return d
	}
	return 2
}

// MaxEdgeDistance implements Graph. In extended-domain coordinates the edge
// (0, ⊥) has length |T|, which is exactly the cumulative-histogram price of
// protecting presence; the base edges keep their lengths.
func (b *BottomGraph) MaxEdgeDistance() float64 {
	base := b.base.MaxEdgeDistance()
	if bot := float64(b.ext.Size() - 1); bot > base {
		return bot
	}
	return base
}

// LInfThreshold is the distance-threshold specification S^{d,θ} under the
// L∞ (Chebyshev) metric: two values are secrets when every attribute
// differs by at most θ. On location grids this protects square
// neighborhoods where the L1 variant protects diamonds; the paper's metric
// d is pluggable ("there is an inherent distance metric d associated with
// the points in the domain"), and this is the second natural instance.
type LInfThreshold struct {
	dom   *domain.Domain
	theta float64
}

// NewLInfThreshold returns the L∞ threshold graph with θ > 0.
func NewLInfThreshold(d *domain.Domain, theta float64) (*LInfThreshold, error) {
	if theta <= 0 || math.IsNaN(theta) || math.IsInf(theta, 0) {
		return nil, fmt.Errorf("secgraph: invalid distance threshold %v", theta)
	}
	return &LInfThreshold{dom: d, theta: theta}, nil
}

// Domain implements Graph.
func (g *LInfThreshold) Domain() *domain.Domain { return g.dom }

// Name implements Graph.
func (g *LInfThreshold) Name() string { return fmt.Sprintf("Linf|θ=%g", g.theta) }

// Adjacent implements Graph.
func (g *LInfThreshold) Adjacent(x, y domain.Point) bool {
	return x != y && g.dom.LInf(x, y) <= g.theta
}

// HopDistance implements Graph: every step may move all attributes by up to
// θ simultaneously, so the hop distance is ceil(L∞(x,y)/θ).
func (g *LInfThreshold) HopDistance(x, y domain.Point) float64 {
	if x == y {
		return 0
	}
	return math.Ceil(g.dom.LInf(x, y) / g.theta)
}

// MaxEdgeDistance implements Graph: an edge may move every attribute by up
// to floor(θ), so the largest L1 span is Σ_i min(floor(θ), |Ai|−1).
func (g *LInfThreshold) MaxEdgeDistance() float64 {
	if g.dom.Size() < 2 {
		return 0
	}
	step := math.Floor(g.theta)
	var sum float64
	for i := 0; i < g.dom.NumAttrs(); i++ {
		r := float64(g.dom.Attr(i).Size - 1)
		if r > step {
			r = step
		}
		sum += r
	}
	return sum
}
