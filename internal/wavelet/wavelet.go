// Package wavelet implements the Privelet mechanism of Xiao, Wang and
// Gehrke ("Differential privacy via wavelet transforms", ICDE 2010) — one of
// the hierarchical-family baselines the paper's Section 7 cites ([19]).
//
// A histogram over an ordered domain is Haar-transformed; each coefficient
// receives Laplace noise inversely proportional to its weight, chosen so the
// weighted L1 sensitivity of the whole coefficient vector is 1 + log2(N)
// per unit change (2(1+log2 N) for the indistinguishability neighbors used
// throughout this library). Range queries are answered from the
// reconstructed histogram with polylogarithmic error, like the hierarchical
// mechanism; the package exists as an additional differential-privacy
// baseline for ablation benchmarks.
package wavelet

import (
	"fmt"
	"math"

	"blowfish/internal/noise"
)

// Transform is a Haar wavelet transform over histograms of length n,
// zero-padded to the next power of two.
type Transform struct {
	n      int
	padded int
	levels int // log2(padded)
}

// New creates a transform for histograms of length n ≥ 1.
func New(n int) (*Transform, error) {
	if n < 1 {
		return nil, fmt.Errorf("wavelet: invalid length %d", n)
	}
	padded := 1
	levels := 0
	for padded < n {
		padded <<= 1
		levels++
	}
	return &Transform{n: n, padded: padded, levels: levels}, nil
}

// Padded returns the power-of-two transform length.
func (t *Transform) Padded() int { return t.padded }

// Levels returns log2(Padded()).
func (t *Transform) Levels() int { return t.levels }

// Forward computes the Haar coefficients of counts. Coefficient 0 is the
// overall average; coefficient k (k ≥ 1, heap order) is
// (avg(left subtree) − avg(right subtree)) / 2 of the k-th internal node of
// the dyadic tree.
func (t *Transform) Forward(counts []float64) ([]float64, error) {
	if len(counts) != t.n {
		return nil, fmt.Errorf("wavelet: %d counts for length %d", len(counts), t.n)
	}
	// avgs[k] for heap-ordered dyadic nodes: leaves at k in
	// [padded, 2*padded).
	avgs := make([]float64, 2*t.padded)
	for i := 0; i < t.padded; i++ {
		if i < t.n {
			avgs[t.padded+i] = counts[i]
		}
	}
	for k := t.padded - 1; k >= 1; k-- {
		avgs[k] = (avgs[2*k] + avgs[2*k+1]) / 2
	}
	coeffs := make([]float64, t.padded)
	coeffs[0] = avgs[1] // overall average
	for k := 1; k < t.padded; k++ {
		coeffs[k] = (avgs[2*k] - avgs[2*k+1]) / 2
	}
	return coeffs, nil
}

// Inverse reconstructs the histogram (truncated to length n) from Haar
// coefficients.
func (t *Transform) Inverse(coeffs []float64) ([]float64, error) {
	if len(coeffs) != t.padded {
		return nil, fmt.Errorf("wavelet: %d coefficients for padded length %d", len(coeffs), t.padded)
	}
	avgs := make([]float64, 2*t.padded)
	avgs[1] = coeffs[0]
	for k := 1; k < t.padded; k++ {
		avgs[2*k] = avgs[k] + coeffs[k]
		avgs[2*k+1] = avgs[k] - coeffs[k]
	}
	out := make([]float64, t.n)
	copy(out, avgs[t.padded:t.padded+t.n])
	return out, nil
}

// Weights returns the Privelet weight W of each coefficient: W = padded for
// the average, 2^height(v) for the detail coefficient of a node with
// 2^height(v) leaves below it. A unit change to one count changes
// coefficient c by at most 1/W(c), so the weighted L1 sensitivity of the
// vector is 1 + levels.
func (t *Transform) Weights() []float64 {
	w := make([]float64, t.padded)
	w[0] = float64(t.padded)
	// Heap node k at depth d has padded/2^d leaves; depth of k is
	// floor(log2 k).
	for k := 1; k < t.padded; k++ {
		depth := 0
		for kk := k; kk > 1; kk >>= 1 {
			depth++
		}
		w[k] = float64(t.padded) / float64(int(1)<<depth)
	}
	return w
}

// Released holds noisy Haar coefficients.
type Released struct {
	t      *Transform
	coeffs []float64
	leaves []float64
}

// Release noises each coefficient with scale λ/W(c) where
// λ = 2(1+levels)·sensitivity-unit/ε: the factor 2 calibrates for
// change-one-tuple (indistinguishability) neighbors, matching the rest of
// the library.
func (t *Transform) Release(counts []float64, eps float64, src *noise.Source) (*Released, error) {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("wavelet: invalid epsilon %v", eps)
	}
	coeffs, err := t.Forward(counts)
	if err != nil {
		return nil, err
	}
	lambda := 2 * float64(1+t.levels) / eps
	weights := t.Weights()
	noisy := make([]float64, len(coeffs))
	for i, c := range coeffs {
		noisy[i] = c + src.Laplace(lambda/weights[i])
	}
	leaves, err := t.Inverse(noisy)
	if err != nil {
		return nil, err
	}
	return &Released{t: t, coeffs: noisy, leaves: leaves}, nil
}

// Leaves returns the reconstructed noisy histogram.
func (r *Released) Leaves() []float64 { return r.leaves }

// RangeQuery answers q[lo, hi] (inclusive) from the reconstruction.
func (r *Released) RangeQuery(lo, hi int) (float64, error) {
	if lo < 0 || hi >= r.t.n || lo > hi {
		return 0, fmt.Errorf("wavelet: invalid range [%d,%d] over length %d", lo, hi, r.t.n)
	}
	var sum float64
	for i := lo; i <= hi; i++ {
		sum += r.leaves[i]
	}
	return sum, nil
}
