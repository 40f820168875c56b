package constraints_test

import (
	"testing"

	"blowfish/internal/composition"
	"blowfish/internal/constraints"
	"blowfish/internal/domain"
	"blowfish/internal/engine"
	"blowfish/internal/noise"
	"blowfish/internal/policy"
	"blowfish/internal/secgraph"
)

// TestReleaseHistogramUnderConstraints releases a histogram under a known
// marginal through the release engine: the noise is calibrated to
// Theorem 8.4's full-domain bound.
func TestReleaseHistogramUnderConstraints(t *testing.T) {
	d := domain.MustNew(
		domain.Attribute{Name: "A1", Size: 2},
		domain.Attribute{Name: "A2", Size: 3},
	)
	ds := domain.NewDataset(d)
	for a := 0; a < 2; a++ {
		for b := 0; b < 3; b++ {
			for r := 0; r < (a+1)*(b+1); r++ {
				ds.MustAdd(d.MustEncode(a, b))
			}
		}
	}
	m, err := constraints.NewMarginal(d, []int{0})
	if err != nil {
		t.Fatalf("NewMarginal: %v", err)
	}
	set, err := m.Set(ds)
	if err != nil {
		t.Fatalf("Set: %v", err)
	}
	plan, err := engine.Compile(policy.NewConstrained(secgraph.NewComplete(d), set))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	sens, err := plan.HistogramSensitivity()
	if err != nil {
		t.Fatal(err)
	}
	if want := m.FullDomainSensitivity(); sens != want {
		t.Fatalf("sensitivity = %v, want %v", sens, want)
	}
	acct, err := composition.NewAccountant(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(plan, acct, noise.NewSource(3))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := plan.Index(ds)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := eng.ReleaseHistogram(idx, 1.0)
	if err != nil {
		t.Fatalf("ReleaseHistogram: %v", err)
	}
	if len(rel) != int(d.Size()) {
		t.Fatalf("release length = %d, want %d", len(rel), d.Size())
	}
}
