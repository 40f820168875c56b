package hierarchy

import (
	"math"
	"math/rand"
	"testing"

	"blowfish/internal/noise"
)

// TestReleaseInteriorIntoMatchesReleaseInterior pins the zero-alloc slab
// variant to the allocating path bit for bit: identical seeds must yield
// identical node values and variances, or the Ordered Hierarchical noise
// stream (and with it crash-recovery determinism) has silently shifted.
// SkipInterior must move a Source exactly as far as the release does.
func TestReleaseInteriorIntoMatchesReleaseInterior(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, shape := range []struct {
		size, fanout int
		scale        float64
	}{
		{1, 2, 0.5},  // single-node tree: the noisy-root special case
		{7, 2, 1.25}, // ragged binary tree
		{16, 4, 0.1},
		{100, 3, 2.0},
		{64, 2, 0}, // zero scale: exact values
	} {
		tr, err := New(shape.size, shape.fanout)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]float64, shape.size)
		for i := range counts {
			counts[i] = float64(rng.Intn(50))
		}
		want, err := tr.ReleaseInterior(counts, shape.scale, nil, noise.NewSource(41))
		if err != nil {
			t.Fatalf("ReleaseInterior(%+v): %v", shape, err)
		}
		n := tr.NodeCount()
		values := make([]float64, n)
		variance := make([]float64, n)
		src := noise.NewSource(41)
		got, err := tr.ReleaseInteriorInto(values, variance, counts, shape.scale, src)
		if err != nil {
			t.Fatalf("ReleaseInteriorInto(%+v): %v", shape, err)
		}
		skipped := noise.NewSource(41)
		if err := tr.SkipInterior(shape.scale, skipped); err != nil {
			t.Fatalf("SkipInterior(%+v): %v", shape, err)
		}
		if a, b := src.Uniform(), skipped.Uniform(); a != b {
			t.Fatalf("%+v: after SkipInterior the next uniform is %v, want %v", shape, b, a)
		}
		for i := 0; i < n; i++ {
			if got.Value(i) != want.Value(i) {
				t.Fatalf("%+v node %d value = %v, want %v", shape, i, got.Value(i), want.Value(i))
			}
			if got.Variance(i) != want.Variance(i) && !(isInf(got.Variance(i)) && isInf(want.Variance(i))) {
				t.Fatalf("%+v node %d variance = %v, want %v", shape, i, got.Variance(i), want.Variance(i))
			}
		}
		// The release must be backed by the caller's storage, not a copy.
		if &got.values[0] != &values[0] || &got.variance[0] != &variance[0] {
			t.Fatalf("%+v: released vectors do not alias the provided slabs", shape)
		}
	}
}

func isInf(v float64) bool { return v > 1e308 }

func TestReleaseInteriorIntoValidation(t *testing.T) {
	tr, err := New(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := tr.NodeCount()
	good := make([]float64, n)
	src := noise.NewSource(1)
	if _, err := tr.ReleaseInteriorInto(good, good, make([]float64, 8), -1, src); err == nil {
		t.Error("negative scale accepted")
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := tr.SkipInterior(bad, src); err == nil {
			t.Errorf("SkipInterior accepted scale %v", bad)
		}
	}
	if _, err := tr.ReleaseInteriorInto(make([]float64, n-1), good, make([]float64, 8), 1, src); err == nil {
		t.Error("short values slab accepted")
	}
	if _, err := tr.ReleaseInteriorInto(good, make([]float64, n+1), make([]float64, 8), 1, src); err == nil {
		t.Error("long variance slab accepted")
	}
	if _, err := tr.ReleaseInteriorInto(good, good, make([]float64, 7), 1, src); err == nil {
		t.Error("mis-sized counts accepted")
	}
}

// TestEvalIntoMatchesEval pins the in-place evaluation to Eval, including
// over dirty scratch that must be fully overwritten.
func TestEvalIntoMatchesEval(t *testing.T) {
	tr, err := New(37, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	counts := make([]float64, 37)
	for i := range counts {
		counts[i] = float64(rng.Intn(20))
	}
	want, err := tr.Eval(counts)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, tr.NodeCount())
	for i := range got {
		got[i] = -1e9 // dirty scratch
	}
	if err := tr.EvalInto(counts, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("node %d = %v, want %v", i, got[i], want[i])
		}
	}
	if err := tr.EvalInto(counts, make([]float64, 3)); err == nil {
		t.Error("mis-sized eval scratch accepted")
	}
	if err := tr.EvalInto(make([]float64, 5), got); err == nil {
		t.Error("mis-sized counts accepted")
	}
}
