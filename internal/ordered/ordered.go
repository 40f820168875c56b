// Package ordered implements the paper's novel release strategies for
// cumulative histograms and range queries under distance-threshold Blowfish
// policies:
//
//   - the Ordered Mechanism (Section 7.1): under the line graph G^{d,1} the
//     cumulative histogram has sensitivity 1, so every cumulative count is
//     released with Lap(1/ε) and boosted by isotonic constrained inference;
//     any range query then costs ≤ 4/ε² — independent of |T| and below the
//     SVD lower bound for differentially private strategies;
//
//   - the Ordered Hierarchical Mechanism (Section 7.2): for G^{d,θ} a hybrid
//     of S-nodes (prefix counts at stride θ, sensitivity 1) and H-subtrees
//     (fan-out-f trees inside each θ-block, sensitivity 2h), with the privacy
//     budget split ε = ε_S + ε_H optimized per Eq. (15). θ = 1 degenerates to
//     the pure ordered mechanism, θ = |T| to the hierarchical mechanism.
package ordered

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"blowfish/internal/hierarchy"
	"blowfish/internal/infer"
	"blowfish/internal/noise"
)

// ReleaseCumulative perturbs each cumulative count with Laplace noise of
// scale sensitivity/ε — the Ordered Mechanism's release step. Under the
// line-graph policy the sensitivity is 1; under G^{d,θ} it is θ
// (policy.CumulativeHistogramSensitivity).
func ReleaseCumulative(cumulative []float64, sensitivity, eps float64, src *noise.Source) ([]float64, error) {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("ordered: invalid epsilon %v", eps)
	}
	if sensitivity < 0 || math.IsNaN(sensitivity) || math.IsInf(sensitivity, 0) {
		return nil, fmt.Errorf("ordered: invalid sensitivity %v", sensitivity)
	}
	scale := sensitivity / eps
	out := make([]float64, len(cumulative))
	for i, v := range cumulative {
		out[i] = v + src.Laplace(scale)
	}
	return out, nil
}

// InferCumulative applies the constrained inference of Section 7.1: the
// released cumulative counts are projected onto the non-decreasing cone
// (Hay-style consistency) and clamped into [0, n]; n is the public dataset
// cardinality. This never uses the privacy budget and reduces the error to
// O(p·log³|T|/ε²) for data with p distinct cumulative counts.
func InferCumulative(noisy []float64, n float64) []float64 {
	return infer.MonotoneCumulative(noisy, n)
}

// RangeFromCumulative answers q[lo, hi] (inclusive, 0-indexed) from a
// cumulative histogram: C(hi) − C(lo−1).
func RangeFromCumulative(cumulative []float64, lo, hi int) (float64, error) {
	if lo < 0 || hi >= len(cumulative) || lo > hi {
		return 0, fmt.Errorf("ordered: invalid range [%d,%d] over size %d", lo, hi, len(cumulative))
	}
	v := cumulative[hi]
	if lo > 0 {
		v -= cumulative[lo-1]
	}
	return v, nil
}

// OrderedRangeErrorBound returns the Theorem 7.1 bound on the expected
// squared error of a single range query under the pure ordered mechanism:
// 4/ε² (two cumulative counts, each with variance 2/ε²).
func OrderedRangeErrorBound(eps float64) float64 { return 4 / (eps * eps) }

// OH is the Ordered Hierarchical structure for a policy (T, G^{d,θ}, I_n)
// over a one-dimensional ordered domain of the given size (Figure 2(a)).
type OH struct {
	size   int
	theta  int
	fanout int
	k      int // number of S-nodes = ceil(size/θ)
	// blocks[i] is the H-subtree over block i (width ≤ θ); blocks[i] covers
	// positions [i·θ, min((i+1)·θ, size)).
	blocks []*hierarchy.Tree
	height int // h = ceil(log_f θ), height of the H-subtrees
	// releasedBlocks counts the blocks wider than one position (only those
	// carry an H-subtree release) and releasedNodes their total node count;
	// both are fixed by the layout, so ReleaseWithSplit can size the single
	// slab that backs a whole release up front.
	releasedBlocks int
	releasedNodes  int
}

// NewOH builds the structure. theta is clamped meaningfully: θ = 1 is the
// pure ordered mechanism; θ ≥ size gives a single block — the hierarchical
// mechanism.
func NewOH(size, theta, fanout int) (*OH, error) {
	if size <= 0 {
		return nil, fmt.Errorf("ordered: non-positive size %d", size)
	}
	if theta <= 0 {
		return nil, fmt.Errorf("ordered: non-positive theta %d", theta)
	}
	if fanout < 2 {
		return nil, fmt.Errorf("ordered: fanout %d < 2", fanout)
	}
	if theta > size {
		theta = size
	}
	o := &OH{size: size, theta: theta, fanout: fanout, k: (size + theta - 1) / theta}
	for lo := 0; lo < size; lo += theta {
		hi := lo + theta
		if hi > size {
			hi = size
		}
		t, err := hierarchy.New(hi-lo, fanout)
		if err != nil {
			return nil, err
		}
		o.blocks = append(o.blocks, t)
		if h := t.Height(); h > o.height {
			o.height = h
		}
		if t.Size() > 1 {
			o.releasedBlocks++
			o.releasedNodes += t.NodeCount()
		}
	}
	return o, nil
}

// WithFanout returns a copy of o that splits the budget for fanout f and
// shares o's trees: NewOH's layout for f whenever f and o's fanout both
// reach the block width, where every block is one root over its positions.
func (o *OH) WithFanout(f int) *OH {
	c := *o
	c.fanout = f
	return &c
}

// Size returns |T|.
func (o *OH) Size() int { return o.size }

// Theta returns the (possibly clamped) block width θ.
func (o *OH) Theta() int { return o.theta }

// Fanout returns the H-subtree fanout f.
func (o *OH) Fanout() int { return o.fanout }

// NumSNodes returns k = ceil(|T|/θ).
func (o *OH) NumSNodes() int { return o.k }

// Height returns h = ceil(log_f θ), the H-subtree height.
func (o *OH) Height() int { return o.height }

// ErrorCoefficients returns the constants of Eq. (14):
// E[q] = c1/ε_S² + c2/ε_H², with
// c1 = 4(|T|−θ)/(|T|+1) and c2 = 8(f−1)·log_f³θ·|T|/(|T|+1).
func (o *OH) ErrorCoefficients() (c1, c2 float64) {
	T := float64(o.size)
	th := float64(o.theta)
	f := float64(o.fanout)
	c1 = 4 * (T - th) / (T + 1)
	logf := math.Log(th) / math.Log(f)
	c2 = 8 * (f - 1) * logf * logf * logf * T / (T + 1)
	return c1, c2
}

// OptimalSplit returns the budget split (ε_S, ε_H) minimizing Eq. (14) per
// Eq. (15): ε_S* = ε·c1^{1/3}/(c1^{1/3}+c2^{1/3}). θ = |T| gives (0, ε)
// (pure hierarchical); θ = 1 gives (ε, 0) (pure ordered).
func (o *OH) OptimalSplit(eps float64) (epsS, epsH float64) {
	c1, c2 := o.ErrorCoefficients()
	a := math.Cbrt(c1)
	b := math.Cbrt(c2)
	switch {
	case a+b == 0:
		// Degenerate single-value domain: no noise needed anywhere.
		return eps, 0
	case b == 0: // θ = 1: pure ordered mechanism
		return eps, 0
	case a == 0: // θ = |T|: pure hierarchical mechanism
		return 0, eps
	}
	epsS = eps * a / (a + b)
	return epsS, eps - epsS
}

// ExpectedRangeError evaluates the Eq. (14) error model at a given split;
// terms with zero budget and zero coefficient contribute nothing.
func (o *OH) ExpectedRangeError(epsS, epsH float64) float64 {
	c1, c2 := o.ErrorCoefficients()
	var e float64
	switch {
	case c1 == 0:
	case epsS <= 0:
		return math.Inf(1)
	default:
		e += c1 / (epsS * epsS)
	}
	switch {
	case c2 == 0:
	case epsH <= 0:
		return math.Inf(1)
	default:
		e += c2 / (epsH * epsH)
	}
	return e
}

// MinimalExpectedRangeError evaluates Eq. (15): the model error at the
// optimal split, (c1^{1/3}+c2^{1/3})³/ε².
func (o *OH) MinimalExpectedRangeError(eps float64) float64 {
	c1, c2 := o.ErrorCoefficients()
	s := math.Cbrt(c1) + math.Cbrt(c2)
	return s * s * s / (eps * eps)
}

// OHRelease holds the released Ordered Hierarchical structure.
type OHRelease struct {
	oh *OH
	// sPrefix[i] is the released prefix count s_{i+1} = q[x_0, x_{(i+1)θ-1}]
	// for i = 0..k-1; sPrefix[k-1] covers the whole domain. Entry 0 is not
	// directly noised (s_1 is the root of H_1); it is reconstructed from
	// block 1's released root.
	sPrefix []float64
	// blocks[i] is the released H-subtree of block i.
	blocks []*hierarchy.Released
}

// Release publishes the structure with the optimal budget split.
func (o *OH) Release(counts []float64, eps float64, src *noise.Source) (*OHRelease, error) {
	epsS, epsH := o.OptimalSplit(eps)
	return o.ReleaseWithSplit(counts, epsS, epsH, src)
}

// ReleaseWithSplit publishes the structure with an explicit split
// (ε_S, ε_H), for budget ablations. Per Section 7.2: s_i (i ≥ 2) receives
// Lap(1/ε_S); H-nodes in blocks i ≥ 2 receive Lap(2h/ε_H); H_1 — whose root
// is s_1 — receives Lap(2h/(ε_S+ε_H)).
func (o *OH) ReleaseWithSplit(counts []float64, epsS, epsH float64, src *noise.Source) (*OHRelease, error) {
	// The whole release escapes to the caller as one unit, so its storage is
	// carved from one slab: k S-node prefixes, then per released block a
	// values and a variance vector. A fixed handful of allocations (slab,
	// Released headers, block pointers) replaces the four-per-block of the
	// naive path, and the block truths are evaluated straight into the slab
	// — no per-block Eval scratch at all.
	slab := make([]float64, o.k+2*o.releasedNodes)
	r := &OHRelease{oh: o, sPrefix: slab[:o.k:o.k], blocks: make([]*hierarchy.Released, 0, len(o.blocks))}
	if err := o.release(r, slab[o.k:], make([]hierarchy.Released, o.releasedBlocks), counts, epsS, epsH, src, nil); err != nil {
		return nil, err
	}
	return r, nil
}

// What a query-driven release noises, per block index i: the S-node
// prefix s_{i+1}, and the H-subtree over block i.
const (
	readsPrefix uint8 = 1 << iota
	readsBlock
)

// release noises r in the release schedule's draw order: the H-subtree of
// every block wider than one position (block 0 at the combined budget),
// then s_1, then s_2..s_k. The blocks' values and variances are carved
// from slab in turn and their headers from rels. With reads nil every node
// is noised. Otherwise only the prefixes and blocks reads marks are: every
// other block is nil, every other prefix NaN, and src moves past their
// draws, so each noised node holds the bits a full release gives it.
func (o *OH) release(r *OHRelease, slab []float64, rels []hierarchy.Released, counts []float64, epsS, epsH float64, src *noise.Source, reads []uint8) error {
	if len(counts) != o.size {
		return fmt.Errorf("ordered: %d counts for size %d", len(counts), o.size)
	}
	if !(epsS >= 0) || !(epsH >= 0) || !(epsS+epsH > 0) {
		return fmt.Errorf("ordered: invalid budget split (%v, %v)", epsS, epsH)
	}
	off := 0

	// H-subtrees. Block 0 uses the combined budget. Single-node trees
	// (θ=1, or a width-1 last block) are never queried — their positions
	// are covered by S-node prefixes — so nothing is released for them.
	h := float64(o.height)
	released := 0
	for i, tree := range o.blocks {
		if tree.Size() == 1 {
			r.blocks = append(r.blocks, nil)
			continue
		}
		lo := i * o.theta
		blockCounts := counts[lo : lo+tree.Size()]
		budget := epsH
		if i == 0 {
			budget = epsS + epsH
		}
		scale := 0.0
		if h > 0 {
			if budget <= 0 {
				return errors.New("ordered: H-subtrees need positive budget when θ > 1")
			}
			scale = 2 * h / budget
		}
		n := tree.NodeCount()
		values := slab[off : off+n : off+n]
		variance := slab[off+n : off+2*n : off+2*n]
		off += 2 * n
		if reads != nil && reads[i]&readsBlock == 0 {
			if err := tree.SkipInterior(scale, src); err != nil {
				return err
			}
			r.blocks = append(r.blocks, nil)
			continue
		}
		rel, err := tree.ReleaseInteriorInto(values, variance, blockCounts, scale, src)
		if err != nil {
			return err
		}
		rels[released] = rel
		r.blocks = append(r.blocks, &rels[released])
		released++
	}

	// The released H-subtree roots are exact block totals in
	// hierarchy.ReleaseWithScale (public-cardinality convention); under the
	// OH privacy argument block totals are NOT public, so noise them here
	// explicitly — block 0's root with the combined budget, others unused
	// (prefixes use S-nodes).
	// Block 0 root = s_1.
	block0Total := 0.0
	for i := 0; i < o.blocks[0].Size(); i++ {
		block0Total += counts[i]
	}
	s1Scale := 0.0
	if o.theta > 1 {
		s1Scale = 2 * math.Max(h, 1) / (epsS + epsH)
	} else {
		if epsS <= 0 {
			return errors.New("ordered: θ=1 requires positive ε_S")
		}
		s1Scale = 1 / epsS
	}
	if reads == nil || reads[0]&readsPrefix != 0 {
		r.sPrefix[0] = block0Total + src.Laplace(s1Scale)
	} else {
		r.sPrefix[0] = skipDraw(s1Scale, src)
	}

	// Remaining S-nodes: true prefixes + Lap(1/ε_S).
	if o.k > 1 {
		if epsS <= 0 {
			return errors.New("ordered: multiple S-nodes require positive ε_S")
		}
		prefix := block0Total
		for i := 1; i < o.k; i++ {
			lo := i * o.theta
			for j := lo; j < lo+o.blocks[i].Size(); j++ {
				prefix += counts[j]
			}
			if reads == nil || reads[i]&readsPrefix != 0 {
				r.sPrefix[i] = prefix + src.Laplace(1/epsS)
			} else {
				r.sPrefix[i] = skipDraw(1/epsS, src)
			}
		}
	}
	return nil
}

// skipDraw moves src past the Laplace(scale) draw of a node that is not
// noised, and returns the NaN that stands for its value. A zero scale
// draws nothing.
func skipDraw(scale float64, src *noise.Source) float64 {
	if scale > 0 {
		src.SkipLaplace(1)
	}
	return math.NaN()
}

// RangeQuery is one inclusive range count q[Lo, Hi]. It is also the wire
// shape of a range query, in release requests, stream creates and the
// records that journal them.
type RangeQuery struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// partialRelease is the pooled storage of a query-driven release: the
// release, the slab and headers its read blocks are carved from, and the
// marks of what its queries read.
type partialRelease struct {
	rel   OHRelease
	slab  []float64
	rels  []hierarchy.Released
	reads []uint8
}

var partials = sync.Pool{New: func() any { return new(partialRelease) }}

// resize returns s with length n, reallocating only when it is too short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ReleaseAnswers answers queries from a release at the optimal split:
// each answer is the one Release followed by Range gives, bit for bit, and
// src ends where Release leaves it. Only the S-node prefixes and blocks
// the answers read are noised — at most two of each per query — and src
// moves past every other node's draws, so only the answers are allocated.
func (o *OH) ReleaseAnswers(counts []float64, eps float64, src *noise.Source, queries []RangeQuery) ([]float64, error) {
	epsS, epsH := o.OptimalSplit(eps)
	return o.answerWithSplit(counts, epsS, epsH, src, queries)
}

// answerWithSplit is ReleaseAnswers at an explicit split.
func (o *OH) answerWithSplit(counts []float64, epsS, epsH float64, src *noise.Source, queries []RangeQuery) ([]float64, error) {
	for _, q := range queries {
		if err := o.checkRange(q.Lo, q.Hi); err != nil {
			return nil, err
		}
	}
	p := partials.Get().(*partialRelease)
	defer partials.Put(p)
	p.slab = resize(p.slab, o.k+2*o.releasedNodes)
	p.rels = resize(p.rels, o.releasedBlocks)
	p.reads = resize(p.reads, o.k)
	clear(p.reads)
	for _, q := range queries {
		for _, j := range [2]int{q.Hi, q.Lo - 1} {
			prefix, block := o.reads(j)
			if prefix >= 0 {
				p.reads[prefix] |= readsPrefix
			}
			if block >= 0 {
				p.reads[block] |= readsBlock
			}
		}
	}
	r := &p.rel
	*r = OHRelease{oh: o, sPrefix: p.slab[:o.k:o.k], blocks: r.blocks[:0]}
	if err := o.release(r, p.slab[o.k:], p.rels, counts, epsS, epsH, src, p.reads); err != nil {
		return nil, err
	}
	answers := make([]float64, len(queries))
	for i, q := range queries {
		a, err := r.Range(q.Lo, q.Hi)
		if err != nil {
			return nil, err
		}
		answers[i] = a
	}
	return answers, nil
}

// reads returns the S-node prefix and the block whose H-subtree
// Cumulative(j) reads, each -1 when it reads none. C(j) = s_l + q[lθ, j],
// and a j that ends its block is the prefix alone.
func (o *OH) reads(j int) (prefix, block int) {
	if j < 0 {
		return -1, -1
	}
	b := j / o.theta
	if j-b*o.theta == o.blocks[b].Size()-1 {
		return b, -1
	}
	return b - 1, b
}

// checkRange refuses a range query that is not within [0, |T|).
func (o *OH) checkRange(lo, hi int) error {
	if lo < 0 || hi >= o.size || lo > hi {
		return fmt.Errorf("ordered: invalid range [%d,%d] over size %d", lo, hi, o.size)
	}
	return nil
}

// Cumulative estimates C(j): the count of values ≤ j (0-indexed). C(-1)=0.
// Per Section 7.2, C(j) = s_l + q[lθ, j] with the in-block part answered by
// the H-subtree greedy decomposition.
func (r *OHRelease) Cumulative(j int) (float64, error) {
	if j < -1 || j >= r.oh.size {
		return 0, fmt.Errorf("ordered: cumulative index %d out of range [0,%d)", j, r.oh.size)
	}
	prefix, block := r.oh.reads(j)
	var c float64
	if prefix >= 0 {
		c = r.sPrefix[prefix]
	}
	if block >= 0 {
		// The in-block part covers a strict sub-block range (a j that ends
		// its block reads the S-node alone), so the greedy decomposition
		// never touches the unobserved block root and consists of noisy
		// nodes only.
		inBlock, _, err := r.blocks[block].RangeQuery(0, j-block*r.oh.theta)
		if err != nil {
			return 0, err
		}
		c += inBlock
	}
	return c, nil
}

// Range answers q[lo, hi] (inclusive) as C(hi) − C(lo−1).
func (r *OHRelease) Range(lo, hi int) (float64, error) {
	if err := r.oh.checkRange(lo, hi); err != nil {
		return 0, err
	}
	chi, err := r.Cumulative(hi)
	if err != nil {
		return 0, err
	}
	clo, err := r.Cumulative(lo - 1)
	if err != nil {
		return 0, err
	}
	return chi - clo, nil
}

// CumulativeVector estimates the whole cumulative histogram.
func (r *OHRelease) CumulativeVector() ([]float64, error) {
	out := make([]float64, r.oh.size)
	for j := 0; j < r.oh.size; j++ {
		v, err := r.Cumulative(j)
		if err != nil {
			return nil, err
		}
		out[j] = v
	}
	return out, nil
}
