// Package mechanism implements the noise-adding release mechanisms that
// Blowfish policies calibrate: the Laplace mechanism of Definition 2.3 /
// Theorem 5.1 and a geometric (discrete Laplace) variant, together with the
// error metrics used throughout the evaluation (Definition 2.4).
package mechanism

import (
	"errors"
	"fmt"
	"math"

	"blowfish/internal/noise"
)

// Laplace is the Laplace mechanism: it privately releases a vector-valued
// query with noise scale sensitivity/ε per coordinate. With the
// policy-specific sensitivity S(f, P) it satisfies (ε, P)-Blowfish privacy
// (Theorem 5.1); with the global sensitivity it is the classical
// ε-differentially-private mechanism.
type Laplace struct {
	eps   float64
	sens  float64
	scale float64
	src   *noise.Source
}

// NewLaplace constructs a Laplace mechanism for the given privacy budget
// and sensitivity. A sensitivity of zero yields the exact (noiseless)
// release that Blowfish permits for queries no secret pair can influence.
func NewLaplace(eps, sensitivity float64, src *noise.Source) (*Laplace, error) {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("mechanism: invalid epsilon %v", eps)
	}
	if sensitivity < 0 || math.IsNaN(sensitivity) || math.IsInf(sensitivity, 0) {
		return nil, fmt.Errorf("mechanism: invalid sensitivity %v", sensitivity)
	}
	if src == nil {
		return nil, errors.New("mechanism: nil noise source")
	}
	return &Laplace{eps: eps, sens: sensitivity, scale: sensitivity / eps, src: src}, nil
}

// Epsilon returns the privacy budget ε.
func (m *Laplace) Epsilon() float64 { return m.eps }

// Sensitivity returns the calibrated sensitivity.
func (m *Laplace) Sensitivity() float64 { return m.sens }

// Scale returns the per-coordinate noise scale b = sensitivity/ε.
func (m *Laplace) Scale() float64 { return m.scale }

// Release returns truth + Lap(scale)^d, leaving truth unmodified.
func (m *Laplace) Release(truth []float64) []float64 {
	out := make([]float64, len(truth))
	for i, v := range truth {
		out[i] = v + m.src.Laplace(m.scale)
	}
	return out
}

// ReleaseInPlace adds Lap(scale) to every coordinate of v and returns v.
// Callers that already own a private copy of the truth (the release engine
// noises histogram snapshots) use it to skip Release's defensive copy; the
// noise stream consumed is identical to Release's.
func (m *Laplace) ReleaseInPlace(v []float64) []float64 {
	for i := range v {
		v[i] += m.src.Laplace(m.scale)
	}
	return v
}

// ReleaseScalar releases a single number.
func (m *Laplace) ReleaseScalar(truth float64) float64 {
	return truth + m.src.Laplace(m.scale)
}

// ExpectedMSE returns the expected mean squared error of a d-dimensional
// release: d · 2b² (each Laplace coordinate has variance 2b²).
func (m *Laplace) ExpectedMSE(d int) float64 {
	return float64(d) * 2 * m.scale * m.scale
}

// Geometric is the discrete counterpart of Laplace: it perturbs integer
// counts with two-sided geometric noise of the same scale, keeping releases
// integral. Useful when consumers require integer counts.
type Geometric struct {
	eps   float64
	sens  float64
	scale float64
	src   *noise.Source
}

// NewGeometric constructs a geometric mechanism.
func NewGeometric(eps, sensitivity float64, src *noise.Source) (*Geometric, error) {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("mechanism: invalid epsilon %v", eps)
	}
	if sensitivity < 0 || math.IsNaN(sensitivity) || math.IsInf(sensitivity, 0) {
		return nil, fmt.Errorf("mechanism: invalid sensitivity %v", sensitivity)
	}
	if src == nil {
		return nil, errors.New("mechanism: nil noise source")
	}
	return &Geometric{eps: eps, sens: sensitivity, scale: sensitivity / eps, src: src}, nil
}

// Release perturbs each integer count with two-sided geometric noise.
func (m *Geometric) Release(truth []int64) []int64 {
	out := make([]int64, len(truth))
	for i, v := range truth {
		out[i] = v + m.src.TwoSidedGeometric(m.scale)
	}
	return out
}

// MSE returns the mean squared error between a true and a released vector
// (Definition 2.4 averaged over coordinates).
func MSE(truth, released []float64) float64 {
	if len(truth) != len(released) {
		panic(fmt.Sprintf("mechanism: MSE dimension mismatch %d vs %d", len(truth), len(released)))
	}
	if len(truth) == 0 {
		return 0
	}
	var sum float64
	for i := range truth {
		d := truth[i] - released[i]
		sum += d * d
	}
	return sum / float64(len(truth))
}

// TotalSquaredError returns the summed squared error E_M(D) of Definition
// 2.4 (no averaging).
func TotalSquaredError(truth, released []float64) float64 {
	return MSE(truth, released) * float64(len(truth))
}

// MeanAbsoluteError returns the mean L1 error per coordinate.
func MeanAbsoluteError(truth, released []float64) float64 {
	if len(truth) != len(released) {
		panic(fmt.Sprintf("mechanism: MAE dimension mismatch %d vs %d", len(truth), len(released)))
	}
	if len(truth) == 0 {
		return 0
	}
	var sum float64
	for i := range truth {
		sum += math.Abs(truth[i] - released[i])
	}
	return sum / float64(len(truth))
}
