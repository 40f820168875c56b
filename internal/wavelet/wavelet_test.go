package wavelet

import (
	"math"
	"math/rand"
	"testing"

	"blowfish/internal/noise"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("length 0 accepted")
	}
	tr, err := New(5)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if tr.Padded() != 8 || tr.Levels() != 3 {
		t.Fatalf("padded=%d levels=%d, want 8, 3", tr.Padded(), tr.Levels())
	}
	tr, err = New(16)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if tr.Padded() != 16 || tr.Levels() != 4 {
		t.Fatalf("padded=%d levels=%d, want 16, 4", tr.Padded(), tr.Levels())
	}
}

func TestForwardInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 7, 8, 13, 64, 100} {
		tr, err := New(n)
		if err != nil {
			t.Fatalf("New(%d): %v", n, err)
		}
		counts := make([]float64, n)
		for i := range counts {
			counts[i] = float64(rng.Intn(50))
		}
		coeffs, err := tr.Forward(counts)
		if err != nil {
			t.Fatalf("Forward: %v", err)
		}
		back, err := tr.Inverse(coeffs)
		if err != nil {
			t.Fatalf("Inverse: %v", err)
		}
		for i := range counts {
			if math.Abs(back[i]-counts[i]) > 1e-9 {
				t.Fatalf("n=%d: round trip[%d] = %v, want %v", n, i, back[i], counts[i])
			}
		}
	}
}

func TestForwardKnownValues(t *testing.T) {
	tr, err := New(4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	coeffs, err := tr.Forward([]float64{4, 2, 6, 0})
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	// avg = 3; c1 = (avg(4,2)-avg(6,0))/2 = 0; c2 = (4-2)/2 = 1; c3 = (6-0)/2 = 3.
	want := []float64{3, 0, 1, 3}
	for i := range want {
		if math.Abs(coeffs[i]-want[i]) > 1e-12 {
			t.Fatalf("coeff[%d] = %v, want %v", i, coeffs[i], want[i])
		}
	}
}

func TestWeights(t *testing.T) {
	tr, err := New(8)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w := tr.Weights()
	// c0: 8; node 1 (root detail, 8 leaves): 8; nodes 2,3 (4 leaves): 4;
	// nodes 4..7 (2 leaves): 2.
	want := []float64{8, 8, 4, 4, 2, 2, 2, 2}
	for i := range want {
		if w[i] != want[i] {
			t.Fatalf("W[%d] = %v, want %v", i, w[i], want[i])
		}
	}
}

// weightedSensitivity computes Σ_c W(c)·|Δc| between the transforms of two
// histograms: the quantity the Privelet privacy analysis bounds, and so the
// sensitivity the release's noise is calibrated to.
func weightedSensitivity(t *Transform, a, b []float64) (float64, error) {
	ca, err := t.Forward(a)
	if err != nil {
		return 0, err
	}
	cb, err := t.Forward(b)
	if err != nil {
		return 0, err
	}
	w := t.Weights()
	var sum float64
	for i := range ca {
		sum += w[i] * math.Abs(ca[i]-cb[i])
	}
	return sum, nil
}

// Privelet's privacy analysis: the weighted L1 distance between coefficient
// vectors of histograms differing by ±1 in one cell is at most 1 + levels,
// and at most 2(1+levels) for one-tuple-change neighbors. Verify by brute
// force over all cell pairs.
func TestWeightedSensitivityBound(t *testing.T) {
	for _, n := range []int{4, 8, 11, 16} {
		tr, err := New(n)
		if err != nil {
			t.Fatalf("New(%d): %v", n, err)
		}
		bound := 2 * float64(1+tr.Levels())
		base := make([]float64, n)
		for i := range base {
			base[i] = 5
		}
		worst := 0.0
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				if x == y {
					continue
				}
				mod := append([]float64(nil), base...)
				mod[x]--
				mod[y]++
				s, err := weightedSensitivity(tr, base, mod)
				if err != nil {
					t.Fatalf("weightedSensitivity: %v", err)
				}
				if s > worst {
					worst = s
				}
			}
		}
		if worst > bound+1e-9 {
			t.Fatalf("n=%d: weighted sensitivity %v exceeds bound %v", n, worst, bound)
		}
		// The bound should be nearly tight for power-of-two domains.
		if n == 8 && worst < bound*0.7 {
			t.Fatalf("n=8: worst-case sensitivity %v suspiciously below bound %v", worst, bound)
		}
	}
}

func TestReleaseUnbiasedRange(t *testing.T) {
	const (
		n    = 64
		eps  = 1.0
		reps = 4000
	)
	tr, err := New(n)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	counts := make([]float64, n)
	for i := range counts {
		counts[i] = float64(rng.Intn(30))
	}
	var truth float64
	for i := 10; i <= 50; i++ {
		truth += counts[i]
	}
	src := noise.NewSource(5)
	var sum float64
	for r := 0; r < reps; r++ {
		rel, err := tr.Release(counts, eps, src)
		if err != nil {
			t.Fatalf("Release: %v", err)
		}
		got, err := rel.RangeQuery(10, 50)
		if err != nil {
			t.Fatalf("RangeQuery: %v", err)
		}
		sum += got
	}
	mean := sum / reps
	if math.Abs(mean-truth) > 0.05*truth+10 {
		t.Fatalf("mean range answer %v, truth %v", mean, truth)
	}
}

func TestReleaseValidation(t *testing.T) {
	tr, err := New(8)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := tr.Release(make([]float64, 8), 0, noise.NewSource(1)); err == nil {
		t.Error("zero epsilon accepted")
	}
	if _, err := tr.Release(make([]float64, 3), 1, noise.NewSource(1)); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := tr.Forward(make([]float64, 9)); err == nil {
		t.Error("Forward length mismatch accepted")
	}
	if _, err := tr.Inverse(make([]float64, 9)); err == nil {
		t.Error("Inverse length mismatch accepted")
	}
	rel, err := tr.Release(make([]float64, 8), 1, noise.NewSource(1))
	if err != nil {
		t.Fatalf("Release: %v", err)
	}
	if _, err := rel.RangeQuery(3, 1); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := rel.RangeQuery(0, 9); err == nil {
		t.Error("out-of-range accepted")
	}
}

// Statistical privacy check of the end-to-end release, mirroring the
// Laplace mechanism test: a fixed event's probability ratio across
// neighboring histograms stays within e^ε.
func TestReleaseIndistinguishability(t *testing.T) {
	const (
		n    = 8
		eps  = 1.0
		reps = 150000
	)
	tr, err := New(n)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h1 := []float64{3, 1, 0, 2, 5, 0, 1, 0}
	h2 := append([]float64(nil), h1...)
	h2[0]--
	h2[4]++ // one tuple moved value 0 -> 4
	src := noise.NewSource(7)
	count1, count2 := 0, 0
	for r := 0; r < reps; r++ {
		r1, err := tr.Release(h1, eps, src)
		if err != nil {
			t.Fatalf("Release: %v", err)
		}
		if r1.Leaves()[0] > 2.5 {
			count1++
		}
		r2, err := tr.Release(h2, eps, src)
		if err != nil {
			t.Fatalf("Release: %v", err)
		}
		if r2.Leaves()[0] > 2.5 {
			count2++
		}
	}
	p1 := float64(count1) / reps
	p2 := float64(count2) / reps
	ratio := p1 / p2
	if ratio < 1 {
		ratio = 1 / ratio
	}
	if ratio > math.Exp(eps)*1.15 {
		t.Fatalf("probability ratio %v exceeds e^ε = %v", ratio, math.Exp(eps))
	}
}
