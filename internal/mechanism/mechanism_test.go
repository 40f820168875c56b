package mechanism

import (
	"math"
	"testing"

	"blowfish/internal/noise"
)

func TestNewLaplaceValidation(t *testing.T) {
	src := noise.NewSource(1)
	cases := []struct {
		name string
		eps  float64
		sens float64
		src  *noise.Source
	}{
		{"zero eps", 0, 1, src},
		{"negative eps", -1, 1, src},
		{"nan eps", math.NaN(), 1, src},
		{"inf eps", math.Inf(1), 1, src},
		{"negative sens", 1, -2, src},
		{"nan sens", 1, math.NaN(), src},
		{"nil source", 1, 1, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewLaplace(c.eps, c.sens, c.src); err == nil {
				t.Fatal("invalid mechanism accepted")
			}
		})
	}
	m, err := NewLaplace(0.5, 2, src)
	if err != nil {
		t.Fatalf("NewLaplace: %v", err)
	}
	if m.Scale() != 4 {
		t.Fatalf("Scale = %v, want 4", m.Scale())
	}
	if m.Epsilon() != 0.5 || m.Sensitivity() != 2 {
		t.Fatal("accessors wrong")
	}
}

func TestLaplaceZeroSensitivityIsExact(t *testing.T) {
	m, err := NewLaplace(1, 0, noise.NewSource(2))
	if err != nil {
		t.Fatalf("NewLaplace: %v", err)
	}
	truth := []float64{1, 2, 3}
	got := m.Release(truth)
	for i := range truth {
		if got[i] != truth[i] {
			t.Fatalf("zero-sensitivity release perturbed: %v", got)
		}
	}
}

func TestLaplaceReleaseDoesNotMutateInput(t *testing.T) {
	m, err := NewLaplace(1, 1, noise.NewSource(3))
	if err != nil {
		t.Fatalf("NewLaplace: %v", err)
	}
	truth := []float64{5, 5}
	_ = m.Release(truth)
	if truth[0] != 5 || truth[1] != 5 {
		t.Fatal("Release mutated its input")
	}
}

func TestLaplaceEmpiricalMSE(t *testing.T) {
	const (
		eps  = 0.5
		sens = 2.0
		dims = 8
		reps = 20000
	)
	m, err := NewLaplace(eps, sens, noise.NewSource(7))
	if err != nil {
		t.Fatalf("NewLaplace: %v", err)
	}
	truth := make([]float64, dims)
	var total float64
	for r := 0; r < reps; r++ {
		rel := m.Release(truth)
		total += TotalSquaredError(truth, rel)
	}
	got := total / reps
	want := m.ExpectedMSE(dims) // 8 · 2·(4)² = 256
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("empirical total squared error = %v, want ~%v", got, want)
	}
	if want != 256 {
		t.Fatalf("ExpectedMSE = %v, want 256", want)
	}
}

func TestGeometricRelease(t *testing.T) {
	m, err := NewGeometric(0.5, 2, noise.NewSource(9))
	if err != nil {
		t.Fatalf("NewGeometric: %v", err)
	}
	truth := []int64{10, 20, 30}
	got := m.Release(truth)
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	changed := false
	for i := range got {
		if got[i] != truth[i] {
			changed = true
		}
	}
	if !changed {
		t.Error("geometric release added no noise at eps=0.5 (astronomically unlikely)")
	}
	if _, err := NewGeometric(-1, 1, noise.NewSource(1)); err == nil {
		t.Error("invalid epsilon accepted")
	}
	if _, err := NewGeometric(1, 1, nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestErrorMetrics(t *testing.T) {
	truth := []float64{1, 2, 3}
	rel := []float64{2, 2, 5}
	if got, want := MSE(truth, rel), (1.0+0+4)/3; got != want {
		t.Fatalf("MSE = %v, want %v", got, want)
	}
	if got, want := TotalSquaredError(truth, rel), 5.0; got != want {
		t.Fatalf("TotalSquaredError = %v, want %v", got, want)
	}
	if got, want := MeanAbsoluteError(truth, rel), (1.0+0+2)/3; got != want {
		t.Fatalf("MeanAbsoluteError = %v, want %v", got, want)
	}
	if MSE(nil, nil) != 0 {
		t.Fatal("empty MSE not 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MSE dimension mismatch did not panic")
		}
	}()
	MSE([]float64{1}, []float64{1, 2})
}

func TestReleaseScalar(t *testing.T) {
	m, err := NewLaplace(1, 2, noise.NewSource(31))
	if err != nil {
		t.Fatalf("NewLaplace: %v", err)
	}
	const reps = 20000
	var sum float64
	for i := 0; i < reps; i++ {
		sum += m.ReleaseScalar(10)
	}
	if mean := sum / reps; math.Abs(mean-10) > 0.1 {
		t.Fatalf("ReleaseScalar mean = %v, want ~10", mean)
	}
	// Zero sensitivity: exact.
	exact, err := NewLaplace(1, 0, noise.NewSource(1))
	if err != nil {
		t.Fatalf("NewLaplace: %v", err)
	}
	if got := exact.ReleaseScalar(7); got != 7 {
		t.Fatalf("zero-sensitivity scalar = %v", got)
	}
}
