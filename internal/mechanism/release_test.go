package mechanism_test

import (
	"math"
	"testing"

	"blowfish/internal/composition"
	"blowfish/internal/domain"
	"blowfish/internal/engine"
	"blowfish/internal/mechanism"
	"blowfish/internal/noise"
	"blowfish/internal/policy"
	"blowfish/internal/secgraph"
)

// The release engine is the only path that calibrates the mechanism to a
// policy, so these tests release through it.

// testEngine compiles pol and returns a sequential engine over it with
// the given budget and seed, plus the index of ds.
func testEngine(t *testing.T, pol *policy.Policy, ds *domain.Dataset, budget float64, seed int64) (*engine.Engine, *engine.DatasetIndex) {
	t.Helper()
	plan, err := engine.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	acct, err := composition.NewAccountant(budget)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(plan, acct, noise.NewSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := plan.Index(ds)
	if err != nil {
		t.Fatal(err)
	}
	return eng, idx
}

func TestReleaseHistogram(t *testing.T) {
	d := domain.MustLine("v", 6)
	ds := domain.NewDataset(d)
	for _, v := range []int{0, 0, 3, 5} {
		ds.MustAdd(domain.Point(v))
	}
	truth, err := ds.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	eng, idx := testEngine(t, policy.Differential(d), ds, 1, 11)
	rel, err := eng.ReleaseHistogram(idx, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel) != 6 {
		t.Fatalf("len = %d, want 6", len(rel))
	}
	if mechanism.MSE(truth, rel) == 0 {
		t.Error("DP histogram release added no noise")
	}
	// Identity-partition policy: sensitivity 0 ⇒ exact release.
	ident, err := domain.Identity(d)
	if err != nil {
		t.Fatal(err)
	}
	eng, idx = testEngine(t, policy.New(secgraph.NewPartition(ident)), ds, 1, 12)
	rel, err = eng.ReleaseHistogram(idx, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if mechanism.MSE(truth, rel) != 0 {
		t.Error("zero-sensitivity histogram release was noisy")
	}
}

func TestReleasePartitionHistogram(t *testing.T) {
	d := domain.MustLine("v", 8)
	ds := domain.NewDataset(d)
	for v := 0; v < 8; v++ {
		ds.MustAdd(domain.Point(v))
	}
	fine, err := domain.NewUniformGrid(d, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := domain.NewUniformGrid(d, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := ds.PartitionHistogram(coarse)
	if err != nil {
		t.Fatal(err)
	}
	// Policy partitioned by fine: the coarse histogram is exact and free.
	eng, idx := testEngine(t, policy.New(secgraph.NewPartition(fine)), ds, 1, 13)
	rel, err := eng.ReleasePartitionHistogram(idx, coarse, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if mechanism.MSE(truth, rel) != 0 {
		t.Error("refined-partition release was noisy")
	}
	if spent := eng.Accountant().Spent(); spent != 0 {
		t.Errorf("exact release charged %v", spent)
	}
	// Differential privacy: noisy.
	eng, idx = testEngine(t, policy.Differential(d), ds, 1, 14)
	rel, err = eng.ReleasePartitionHistogram(idx, coarse, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if mechanism.MSE(truth, rel) == 0 {
		t.Error("DP partition release added no noise")
	}
}

func TestReleaseHistogramErrors(t *testing.T) {
	d := domain.MustLine("v", 4)
	ds := domain.NewDataset(d)
	ds.MustAdd(0)
	eng, idx := testEngine(t, policy.Differential(d), ds, 1, 1)
	if _, err := eng.ReleaseHistogram(idx, -1); err == nil {
		t.Error("negative epsilon accepted")
	}
	other, err := domain.NewUniformGrid(domain.MustLine("w", 6), []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ReleasePartitionHistogram(idx, other, 1); err == nil {
		t.Error("foreign partition accepted")
	}
	if spent := eng.Accountant().Spent(); spent != 0 {
		t.Errorf("refused releases charged %v", spent)
	}
}

// Statistical privacy smoke test: for the histogram query on neighboring
// datasets, the probability of landing in a fixed output region differs by
// at most e^ε (with sampling slack). This exercises the full release path.
func TestLaplaceReleaseIndistinguishability(t *testing.T) {
	const (
		eps  = 1.0
		reps = 200000
	)
	d := domain.MustLine("v", 3)
	ds1 := domain.NewDataset(d)
	ds1.MustAdd(0)
	ds2 := domain.NewDataset(d)
	ds2.MustAdd(1) // neighbor: one tuple changed 0 -> 1
	eng, idx1 := testEngine(t, policy.Differential(d), ds1, 2*reps*eps, 17)
	idx2, err := eng.Index(ds2)
	if err != nil {
		t.Fatal(err)
	}
	// Region: released count of value 0 exceeds 0.5.
	count1, count2 := 0, 0
	for r := 0; r < reps; r++ {
		rel1, err := eng.ReleaseHistogram(idx1, eps)
		if err != nil {
			t.Fatal(err)
		}
		if rel1[0] > 0.5 {
			count1++
		}
		rel2, err := eng.ReleaseHistogram(idx2, eps)
		if err != nil {
			t.Fatal(err)
		}
		if rel2[0] > 0.5 {
			count2++
		}
	}
	p1 := float64(count1) / reps
	p2 := float64(count2) / reps
	ratio := p1 / p2
	if ratio < 1 {
		ratio = 1 / ratio
	}
	if ratio > math.Exp(eps)*1.1 {
		t.Fatalf("probability ratio %v exceeds e^ε = %v", ratio, math.Exp(eps))
	}
}
