// Package hierarchy implements the fan-out-f hierarchical histogram tree of
// Hay et al. [9] — the best known differentially private strategy for range
// queries and the baseline the ordered mechanisms of Section 7 are compared
// against.
//
// A tree over an ordered domain [0, size) stores interval counts: the root
// covers everything, each node splits its interval into at most `fanout`
// children, leaves are unit intervals. Releasing all node counts with
// uniform per-level budget ε/h and noise Lap(2h/ε) answers any range query
// from O(f·log|T|) noisy nodes. The same structure, re-noised with
// policy-scaled budgets, forms the H-subtrees of the Ordered Hierarchical
// mechanism.
package hierarchy

import (
	"fmt"
	"math"
	"sync"

	"blowfish/internal/infer"
	"blowfish/internal/noise"
)

// Node is one interval of the tree, covering [Lo, Hi).
type Node struct {
	Lo, Hi   int
	Parent   int // -1 for the root
	Children []int
	Level    int // root is level 0
}

// Tree is an immutable interval tree over [0, size).
type Tree struct {
	size   int
	fanout int
	nodes  []Node
	// leafOf[i] is the node index of the unit leaf [i, i+1).
	leafOf []int
	levels int // total levels including the root
}

// New builds a tree over [0, size) with the given fanout (≥ 2).
func New(size, fanout int) (*Tree, error) {
	if size <= 0 {
		return nil, fmt.Errorf("hierarchy: non-positive size %d", size)
	}
	if fanout < 2 {
		return nil, fmt.Errorf("hierarchy: fanout %d < 2", fanout)
	}
	t := &Tree{size: size, fanout: fanout, leafOf: make([]int, size)}
	t.build(0, size, -1, 0)
	for idx, n := range t.nodes {
		if n.Hi-n.Lo == 1 {
			t.leafOf[n.Lo] = idx
		}
		if n.Level+1 > t.levels {
			t.levels = n.Level + 1
		}
	}
	return t, nil
}

// build appends the node covering [lo, hi) and recursively its children,
// returning the node's index.
func (t *Tree) build(lo, hi, parent, level int) int {
	idx := len(t.nodes)
	t.nodes = append(t.nodes, Node{Lo: lo, Hi: hi, Parent: parent, Level: level})
	width := hi - lo
	if width == 1 {
		return idx
	}
	// Split into fanout intervals of width ceil(width/fanout).
	step := (width + t.fanout - 1) / t.fanout
	var children []int
	for s := lo; s < hi; s += step {
		e := s + step
		if e > hi {
			e = hi
		}
		children = append(children, t.build(s, e, idx, level+1))
	}
	t.nodes[idx].Children = children
	return idx
}

// Size returns the domain size the tree covers.
func (t *Tree) Size() int { return t.size }

// Fanout returns the tree fanout.
func (t *Tree) Fanout() int { return t.fanout }

// NodeCount returns the number of nodes.
func (t *Tree) NodeCount() int { return len(t.nodes) }

// Node returns node idx.
func (t *Tree) Node(idx int) Node { return t.nodes[idx] }

// Levels returns the total number of levels including the root.
func (t *Tree) Levels() int { return t.levels }

// Height returns h = levels below the root = ceil(log_f size); the paper's
// h in the noise scale 2h/ε.
func (t *Tree) Height() int { return t.levels - 1 }

// Eval computes the true total of every node from unit counts.
func (t *Tree) Eval(counts []float64) ([]float64, error) {
	out := make([]float64, len(t.nodes))
	if err := t.EvalInto(counts, out); err != nil {
		return nil, err
	}
	return out, nil
}

// EvalInto computes the true total of every node into out, which must have
// length NodeCount — the allocation-free core of Eval for callers recycling
// scratch. out need not be zeroed; every entry is overwritten, and the
// child sums accumulate in the same order Eval's did.
func (t *Tree) EvalInto(counts, out []float64) error {
	if len(counts) != t.size {
		return fmt.Errorf("hierarchy: %d counts for size %d", len(counts), t.size)
	}
	if len(out) != len(t.nodes) {
		return fmt.Errorf("hierarchy: %d eval slots for %d nodes", len(out), len(t.nodes))
	}
	// Nodes were appended in DFS pre-order, so children follow parents;
	// accumulate in reverse.
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if len(n.Children) == 0 {
			out[i] = counts[n.Lo]
			continue
		}
		sum := 0.0
		for _, c := range n.Children {
			sum += out[c]
		}
		out[i] = sum
	}
	return nil
}

// Decompose returns the minimal set of node indexes whose intervals
// partition [lo, hi] (inclusive bounds, matching range query q[x_lo, x_hi]).
func (t *Tree) Decompose(lo, hi int) ([]int, error) {
	if lo < 0 || hi >= t.size || lo > hi {
		return nil, fmt.Errorf("hierarchy: invalid range [%d,%d] over size %d", lo, hi, t.size)
	}
	var out []int
	t.decompose(0, lo, hi+1, &out)
	return out, nil
}

func (t *Tree) decompose(idx, lo, hi int, out *[]int) {
	n := t.nodes[idx]
	if n.Lo >= hi || n.Hi <= lo {
		return
	}
	if lo <= n.Lo && n.Hi <= hi {
		*out = append(*out, idx)
		return
	}
	for _, c := range n.Children {
		t.decompose(c, lo, hi, out)
	}
}

// Released holds noisy node values and their variances.
type Released struct {
	tree     *Tree
	values   []float64
	variance []float64
}

// Release releases every node count with the paper's uniform budgeting:
// each of the h non-root levels receives ε/h and each node Laplace noise of
// scale 2h/ε (per-level histograms have sensitivity 2). The root — the
// public dataset cardinality n — is released exactly. A size-1 tree is
// exact: under the indistinguishability model a tuple change never alters
// the total.
func (t *Tree) Release(counts []float64, eps float64, src *noise.Source) (*Released, error) {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("hierarchy: invalid epsilon %v", eps)
	}
	truth, err := t.Eval(counts)
	if err != nil {
		return nil, err
	}
	h := t.Height()
	scale := 0.0
	if h > 0 {
		scale = 2 * float64(h) / eps
	}
	return t.ReleaseWithScale(counts, scale, truth, src)
}

// ReleaseWithScale noises every non-root node with Laplace noise of the
// given scale; the root stays exact (the public dataset cardinality).
// truth may be nil, in which case it is computed from counts.
func (t *Tree) ReleaseWithScale(counts []float64, scale float64, truth []float64, src *noise.Source) (*Released, error) {
	return t.release(counts, scale, truth, src, false)
}

// ReleaseInterior is ReleaseWithScale for subtrees whose total is NOT
// public — the H-subtrees of the Ordered Hierarchical mechanism, whose
// block totals are covered by the S-node chain instead. The root carries no
// observation: its reported value is the sum of its released children
// (nothing exact leaks) and its variance is infinite, so consistency
// inference treats it as unknown.
func (t *Tree) ReleaseInterior(counts []float64, scale float64, truth []float64, src *noise.Source) (*Released, error) {
	return t.release(counts, scale, truth, src, true)
}

// ReleaseInteriorInto is ReleaseInterior writing into caller-provided
// storage: values and variance must have length NodeCount and back the
// returned Released, so callers batching many subtree releases (the Ordered
// Hierarchical mechanism releases one per θ-block) can carve all of them
// from one slab. It allocates nothing — the node truths are evaluated
// directly into values and noised in place — and consumes exactly the noise
// draws ReleaseInterior would, in the same order.
func (t *Tree) ReleaseInteriorInto(values, variance, counts []float64, scale float64, src *noise.Source) (Released, error) {
	if scale < 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return Released{}, fmt.Errorf("hierarchy: invalid noise scale %v", scale)
	}
	if len(values) != len(t.nodes) || len(variance) != len(t.nodes) {
		return Released{}, fmt.Errorf("hierarchy: %d value and %d variance slots for %d nodes", len(values), len(variance), len(t.nodes))
	}
	if err := t.EvalInto(counts, values); err != nil {
		return Released{}, err
	}
	for i := 1; i < len(t.nodes); i++ {
		values[i] += src.Laplace(scale)
		variance[i] = 2 * scale * scale
	}
	if len(t.nodes) > 1 {
		var sum float64
		for _, c := range t.nodes[0].Children {
			sum += values[c]
		}
		values[0] = sum
		variance[0] = math.Inf(1)
	} else {
		// Single-node tree with a non-public total: the only honest release
		// is a noisy one.
		values[0] += src.Laplace(scale)
		variance[0] = 2 * scale * scale
	}
	return Released{tree: t, values: values, variance: variance}, nil
}

// SkipInterior moves src past the draws ReleaseInteriorInto makes at this
// scale, one per non-root node (one in all for a single-node tree),
// without evaluating or noising anything. It refuses the scales
// ReleaseInteriorInto refuses.
func (t *Tree) SkipInterior(scale float64, src *noise.Source) error {
	if scale < 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return fmt.Errorf("hierarchy: invalid noise scale %v", scale)
	}
	if scale > 0 {
		src.SkipLaplace(max(len(t.nodes)-1, 1))
	}
	return nil
}

func (t *Tree) release(counts []float64, scale float64, truth []float64, src *noise.Source, interiorRoot bool) (*Released, error) {
	if scale < 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return nil, fmt.Errorf("hierarchy: invalid noise scale %v", scale)
	}
	if truth == nil {
		var err error
		truth, err = t.Eval(counts)
		if err != nil {
			return nil, err
		}
	}
	r := &Released{
		tree:     t,
		values:   make([]float64, len(t.nodes)),
		variance: make([]float64, len(t.nodes)),
	}
	for i := range t.nodes {
		if i == 0 {
			continue // root handled below
		}
		r.values[i] = truth[i] + src.Laplace(scale)
		r.variance[i] = 2 * scale * scale
	}
	if interiorRoot && len(t.nodes) > 1 {
		var sum float64
		for _, c := range t.nodes[0].Children {
			sum += r.values[c]
		}
		r.values[0] = sum
		r.variance[0] = math.Inf(1)
	} else if interiorRoot {
		// Single-node tree with a non-public total: the only honest release
		// is a noisy one.
		r.values[0] = truth[0] + src.Laplace(scale)
		r.variance[0] = 2 * scale * scale
	} else {
		r.values[0] = truth[0] // public total, exact
	}
	return r, nil
}

// Tree returns the underlying tree.
func (r *Released) Tree() *Tree { return r.tree }

// Value returns the released value of node idx.
func (r *Released) Value(idx int) float64 { return r.values[idx] }

// Variance returns the noise variance of node idx.
func (r *Released) Variance(idx int) float64 { return r.variance[idx] }

// decomposeScratch pools the node-index buffers RangeQuery decomposes
// into: the decomposition is consumed before the call returns, so the
// O(f·log|T|) interval buffer never needs to outlive it.
var decomposeScratch = sync.Pool{New: func() any { return new([]int) }}

// RangeQuery answers q[lo, hi] (inclusive) by summing the greedy node
// decomposition; the second return value is the answer's noise variance.
func (r *Released) RangeQuery(lo, hi int) (float64, float64, error) {
	if lo < 0 || hi >= r.tree.size || lo > hi {
		return 0, 0, fmt.Errorf("hierarchy: invalid range [%d,%d] over size %d", lo, hi, r.tree.size)
	}
	scratch := decomposeScratch.Get().(*[]int)
	idxs := (*scratch)[:0]
	r.tree.decompose(0, lo, hi+1, &idxs)
	var sum, v float64
	for _, idx := range idxs {
		sum += r.values[idx]
		v += r.variance[idx]
	}
	*scratch = idxs
	decomposeScratch.Put(scratch)
	return sum, v, nil
}

// Consistent applies the Hay et al. least-squares consistency step,
// returning a new Released whose node values satisfy every parent-children
// sum exactly. The root is pinned (variance 0). Range queries on the
// consistent release are answered identically by any decomposition; the
// reported variances are the pre-inference ones (upper bounds).
func (r *Released) Consistent() (*Released, error) {
	spec := infer.TreeSpec{
		Parent:   make([]int, len(r.tree.nodes)),
		Variance: append([]float64(nil), r.variance...),
	}
	for i, n := range r.tree.nodes {
		spec.Parent[i] = n.Parent
	}
	vals, err := infer.TreeConsistency(spec, r.values)
	if err != nil {
		return nil, err
	}
	return &Released{tree: r.tree, values: vals, variance: append([]float64(nil), r.variance...)}, nil
}

// Leaves returns the released unit counts in domain order.
func (r *Released) Leaves() []float64 {
	out := make([]float64, r.tree.size)
	for i := 0; i < r.tree.size; i++ {
		out[i] = r.values[r.tree.leafOf[i]]
	}
	return out
}

// ExpectedRangeVariance returns the expected noise variance of a uniformly
// random range query under the raw (pre-consistency) release with per-node
// noise scale 2h/ε: at most 2(f-1)·h nodes contribute, each with variance
// 2(2h/ε)² — the log³|T|/ε² error of the hierarchical baseline.
func (t *Tree) ExpectedRangeVariance(eps float64) float64 {
	h := float64(t.Height())
	if h == 0 {
		return 0
	}
	scale := 2 * h / eps
	nodes := 2 * float64(t.fanout-1) * h
	return nodes * 2 * scale * scale
}
