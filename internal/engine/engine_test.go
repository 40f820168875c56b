package engine

import (
	"errors"
	"math"
	"sync"
	"testing"

	"blowfish/internal/composition"
	"blowfish/internal/constraints"
	"blowfish/internal/domain"
	"blowfish/internal/noise"
	"blowfish/internal/ordered"
	"blowfish/internal/policy"
	"blowfish/internal/secgraph"
)

// TestCompileCachesSensitivities asserts the plan's cached values agree
// with the policy's analytic helpers for every graph kind the server
// supports.
func TestCompileCachesSensitivities(t *testing.T) {
	line := domain.MustLine("v", 32)
	grid := domain.MustGrid(8, 6)
	part, err := domain.NewUniformGrid(grid, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	l1, err := secgraph.NewDistanceThreshold(line, 5)
	if err != nil {
		t.Fatal(err)
	}
	linf, err := secgraph.NewLInfThreshold(grid, 2)
	if err != nil {
		t.Fatal(err)
	}
	lineG, err := secgraph.NewLine(line)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    secgraph.Graph
	}{
		{"full", secgraph.NewComplete(line)},
		{"attr", secgraph.NewAttribute(grid)},
		{"partition", secgraph.NewPartition(part)},
		{"l1", l1},
		{"linf", linf},
		{"line", lineG},
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			pol := policy.New(tc.g)
			plan, err := Compile(pol)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			wantHist, wantHistErr := pol.HistogramSensitivity()
			gotHist, gotHistErr := plan.HistogramSensitivity()
			if gotHist != wantHist || (gotHistErr == nil) != (wantHistErr == nil) {
				t.Errorf("HistogramSensitivity = (%v, %v), want (%v, %v)", gotHist, gotHistErr, wantHist, wantHistErr)
			}
			wantCum, wantCumErr := pol.CumulativeHistogramSensitivity()
			gotCum, gotCumErr := plan.CumulativeSensitivity()
			if gotCum != wantCum || (gotCumErr == nil) != (wantCumErr == nil) {
				t.Errorf("CumulativeSensitivity = (%v, %v), want (%v, %v)", gotCum, gotCumErr, wantCum, wantCumErr)
			}
			wantSum, wantSumErr := pol.SumSensitivity()
			gotSize, gotSum, gotKmErr := plan.KMeansSensitivities()
			if wantSumErr == nil && (gotSum != wantSum || gotSize != wantHist || gotKmErr != nil) {
				t.Errorf("KMeansSensitivities = (%v, %v, %v), want (%v, %v, nil)", gotSize, gotSum, gotKmErr, wantHist, wantSum)
			}
		})
	}
}

// TestCompileConstrainedPolicy pins what a constrained policy compiles to:
// its Section 8 histogram bound, and the unconstrained-only refusal for
// every other release kind, none of which charges the budget.
func TestCompileConstrainedPolicy(t *testing.T) {
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
		t.Fatal(err)
	}
	set, err := m.Set(ds)
	if err != nil {
		t.Fatal(err)
	}
	pol := policy.NewConstrained(secgraph.NewComplete(d), set)
	plan, err := Compile(pol)
	if err != nil {
		t.Fatalf("Compile(constrained): %v", err)
	}
	want, _, err := constraints.HistogramSensitivity(set, pol.Graph())
	if err != nil {
		t.Fatal(err)
	}
	if sens, err := plan.HistogramSensitivity(); err != nil || sens != want {
		t.Fatalf("compiled sensitivity = (%v, %v), want (%v, nil)", sens, err, want)
	}
	if direct, err := HistogramSensitivity(pol); err != nil || direct != want {
		t.Fatalf("HistogramSensitivity = (%v, %v), want (%v, nil)", direct, err, want)
	}

	acct, err := composition.NewAccountant(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(plan, acct, noise.NewSource(3))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := plan.Index(ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.ReleaseCumulative(idx, 0.1); !errors.Is(err, policy.ErrConstrained) {
		t.Errorf("cumulative = %v, want policy.ErrConstrained", err)
	}
	if _, err := eng.PrivateKMeans(idx, 2, 2, 0.1); !errors.Is(err, policy.ErrConstrained) {
		t.Errorf("kmeans = %v, want policy.ErrConstrained", err)
	}
	part, err := domain.NewUniformGrid(d, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ReleasePartitionHistogram(idx, part, 0.1); !errors.Is(err, policy.ErrConstrained) {
		t.Errorf("partition histogram = %v, want policy.ErrConstrained", err)
	}
	if _, err := eng.NewRangeRelease(idx, 4, 0.1); err == nil {
		t.Error("range release over a 2-D domain accepted")
	}
	if got := acct.Spent(); got != 0 {
		t.Errorf("refused releases spent %v", got)
	}

	// Over a line, the range refusal names the constraint.
	line := domain.MustLine("v", 8)
	empty, err := constraints.NewSet(line, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	linePlan, err := Compile(policy.NewConstrained(secgraph.NewComplete(line), empty))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := linePlan.OHFor(4); err == nil || err.Error() != "blowfish: range release supports unconstrained policies only" {
		t.Errorf("constrained range layout = %v", err)
	}

	// A constraint set the engine cannot analyse is refused, never ignored.
	type opaque struct{ policy.ConstraintSet }
	opaquePlan, err := Compile(policy.NewConstrained(secgraph.NewComplete(line), opaque{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := opaquePlan.HistogramSensitivity(); err == nil {
		t.Error("histogram sensitivity of an opaque constraint set accepted")
	}
	if _, err := Compile(nil); err == nil {
		t.Fatal("Compile(nil) accepted")
	}
}

// TestPlanPartitionSensitivityCaching asserts both the registered and
// foreign partition sensitivities agree with the policy computation.
func TestPlanPartitionSensitivityCaching(t *testing.T) {
	d := domain.MustLine("v", 8)
	fine, err := domain.NewUniformGrid(d, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := domain.NewUniformGrid(d, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	pol := policy.New(secgraph.NewPartition(fine))
	plan, err := Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Partition() != domain.Partition(fine) {
		t.Fatal("registered partition not captured")
	}
	for _, part := range []domain.Partition{fine, coarse} {
		want, err := pol.PartitionHistogramSensitivity(part)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // second call hits the cache
			got, err := plan.PartitionSensitivity(part)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("PartitionSensitivity = %v, want %v", got, want)
			}
		}
	}
}

// valuePartition is a Partition with an uncomparable (slice-bearing) value
// dynamic type: using it as a map key or comparing two of them would panic,
// which the plan's caches must never do.
type valuePartition struct {
	dom    *domain.Domain
	widths []int // uncomparable field
}

func (v valuePartition) Domain() *domain.Domain { return v.dom }
func (v valuePartition) NumBlocks() int         { return 2 }
func (v valuePartition) Block(p domain.Point) int {
	if int(p) < v.widths[0] {
		return 0
	}
	return 1
}
func (v valuePartition) BlockDiameter() float64 { return float64(v.widths[0]) }

// TestPartitionSensitivityUncomparablePartition asserts partitions whose
// dynamic type is not comparable skip the cache instead of panicking.
func TestPartitionSensitivityUncomparablePartition(t *testing.T) {
	d := domain.MustLine("v", 8)
	pol := policy.New(secgraph.NewComplete(d))
	plan, err := Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	part := valuePartition{dom: d, widths: []int{4}}
	want, err := pol.PartitionHistogramSensitivity(part)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // twice: neither call may touch the cache
		got, err := plan.PartitionSensitivity(part)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("PartitionSensitivity = %v, want %v", got, want)
		}
	}
	// The full release path must work (and not panic) too.
	acct, err := composition.NewAccountant(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(plan, acct, noise.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	ds := domain.NewDataset(d)
	ds.MustAdd(1)
	ds.MustAdd(6)
	idx, err := plan.Index(ds)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := eng.ReleasePartitionHistogram(idx, part, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel) != 2 {
		t.Fatalf("release length %d, want 2", len(rel))
	}
}

// TestPlanOHCaching asserts the tree layout is built once per fanout and
// invalid fanouts error without being cached. The fanout is within the
// block width θ = 8; wider fanouts are TestPlanOHWideFanouts' subject.
func TestPlanOHCaching(t *testing.T) {
	d := domain.MustLine("v", 64)
	g, err := secgraph.NewDistanceThreshold(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(policy.New(g))
	if err != nil {
		t.Fatal(err)
	}
	a, err := plan.OHFor(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plan.OHFor(4)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("OHFor rebuilt the cached layout")
	}
	if a.Theta() != 8 || a.Size() != 64 {
		t.Errorf("layout theta=%d size=%d, want 8, 64", a.Theta(), a.Size())
	}
	if _, err := plan.OHFor(1); err == nil {
		t.Error("invalid fanout accepted")
	}
	// Multi-attribute domains have no range release.
	grid, err := Compile(policy.New(secgraph.NewComplete(domain.MustGrid(4, 4))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := grid.OHFor(16); err == nil {
		t.Error("range release over a 2-D domain accepted")
	}
}

// TestPlanOHWideFanouts pins the bounded layout cache: a fanout above the
// block width releases bit for bit what a layout built for that fanout
// releases, and any number of distinct wide fanouts caches no layout
// beyond the block-width one.
func TestPlanOHWideFanouts(t *testing.T) {
	d := domain.MustLine("v", 1024)
	g, err := secgraph.NewDistanceThreshold(d, 16)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(policy.New(g))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, 1024)
	for i := range counts {
		counts[i] = float64(i % 7)
	}
	for _, f := range []int{16, 17, 100, 5000} {
		got, err := plan.OHFor(f)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ordered.NewOH(1024, 16, f)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fanout() != f {
			t.Fatalf("OHFor(%d).Fanout() = %d", f, got.Fanout())
		}
		rg, err := got.Release(counts, 0.5, noise.NewSource(int64(f)))
		if err != nil {
			t.Fatal(err)
		}
		rw, err := want.Release(counts, 0.5, noise.NewSource(int64(f)))
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < 1024; lo += 37 {
			a, _ := rg.Range(lo, 1023)
			b, _ := rw.Range(lo, 1023)
			if a != b {
				t.Fatalf("fanout %d: range [%d,1023] = %v, want %v", f, lo, a, b)
			}
		}
	}
	plan.mu.RLock()
	before := len(plan.oh)
	plan.mu.RUnlock()
	for f := 1000; f < 3000; f++ {
		if _, err := plan.OHFor(f); err != nil {
			t.Fatal(err)
		}
	}
	plan.mu.RLock()
	after := len(plan.oh)
	plan.mu.RUnlock()
	if after != before {
		t.Fatalf("2000 wide fanouts grew the layout cache from %d to %d", before, after)
	}
}

// TestEngineParallelReleasesNeverOverspend hammers a keyed engine from
// many goroutines: the accountant's invariants must hold, and every
// successful release must be fully formed.
func TestEngineParallelReleasesNeverOverspend(t *testing.T) {
	d := domain.MustLine("v", 128)
	g, err := secgraph.NewDistanceThreshold(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(policy.New(g))
	if err != nil {
		t.Fatal(err)
	}
	ds := domain.NewDataset(d)
	for i := 0; i < 512; i++ {
		ds.MustAdd(domain.Point(i % 128))
	}
	idx, err := plan.Index(ds)
	if err != nil {
		t.Fatal(err)
	}
	const (
		budget     = 1.0
		eps        = 0.02 // exactly 50 releases fit
		goroutines = 16
		perG       = 8
	)
	acct, err := composition.NewAccountant(budget)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewKeyed(plan, acct, noise.SeedKey(7))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	successes, refused := 0, 0
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var err error
				switch (gi + i) % 3 {
				case 0:
					var rel []float64
					rel, err = eng.ReleaseHistogram(idx, eps)
					if err == nil && len(rel) != 128 {
						t.Errorf("histogram length %d", len(rel))
					}
				case 1:
					_, _, err = eng.ReleaseCumulative(idx, eps)
				default:
					_, err = eng.NewRangeRelease(idx, 16, eps)
				}
				mu.Lock()
				switch {
				case err == nil:
					successes++
				case errors.Is(err, composition.ErrBudgetExceeded):
					refused++
				default:
					t.Errorf("unexpected release error: %v", err)
				}
				mu.Unlock()
			}
		}(gi)
	}
	wg.Wait()
	if acct.Spent() > budget+1e-9 {
		t.Fatalf("accountant overspent: %v > %v", acct.Spent(), budget)
	}
	if want := int(math.Round(budget / eps)); successes != want {
		t.Fatalf("successes = %d, want %d", successes, want)
	}
	if successes+refused != goroutines*perG {
		t.Fatalf("accounted %d attempts, want %d", successes+refused, goroutines*perG)
	}
	if got := len(acct.Releases()); got != successes {
		t.Fatalf("release log has %d entries, want %d", got, successes)
	}
	// Every release that drew noise took its own ordinal.
	if got := eng.Ordinal(); got < uint64(successes) || got > goroutines*perG {
		t.Fatalf("ordinal = %d after %d releases of %d attempts", got, successes, goroutines*perG)
	}
}

// TestEngineSingleShardUsesCallerSource pins the determinism contract: a
// sequential engine draws straight from the provided source, so two
// engines over the same seed produce identical releases.
func TestEngineSingleShardUsesCallerSource(t *testing.T) {
	d := domain.MustLine("v", 32)
	g, err := secgraph.NewDistanceThreshold(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(policy.New(g))
	if err != nil {
		t.Fatal(err)
	}
	ds := domain.NewDataset(d)
	for i := 0; i < 64; i++ {
		ds.MustAdd(domain.Point(i % 32))
	}
	release := func() []float64 {
		acct, err := composition.NewAccountant(1)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(plan, acct, noise.NewSource(42))
		if err != nil {
			t.Fatal(err)
		}
		idx, err := plan.Index(ds)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := eng.ReleaseHistogram(idx, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	a, b := release(), release()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed releases differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestEngineNoiseExportRestore pins what a keyed engine's noise state is:
// the key and the ordinal. An engine restored to another's ordinal
// continues with bit-for-bit the same releases, and a restore that would
// move the ordinal back is refused.
func TestEngineNoiseExportRestore(t *testing.T) {
	pol := policy.New(secgraph.NewComplete(domain.MustLine("v", 32)))
	plan, err := Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Engine {
		acct, _ := composition.NewAccountant(100)
		e, err := NewKeyed(plan, acct, noise.SeedKey(7))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := mk(), mk()
	ds := domain.NewDataset(pol.Domain())
	for i := 0; i < 50; i++ {
		ds.MustAdd(domain.Point(i % int(pol.Domain().Size())))
	}
	idxA, _ := a.Index(ds)
	// Advance a's ordinal, then carry it over to b.
	for i := 0; i < 5; i++ {
		if _, err := a.ReleaseHistogram(idxA, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Ordinal(); got != 5 {
		t.Fatalf("ordinal after 5 releases = %d", got)
	}
	if err := b.RestoreOrdinal(a.Ordinal()); err != nil {
		t.Fatal(err)
	}
	idxB, _ := b.Index(ds)
	for i := 0; i < 8; i++ {
		ra, err := a.ReleaseHistogram(idxA, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.ReleaseHistogram(idxB, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("release %d diverged at bin %d: %v vs %v", i, j, ra[j], rb[j])
			}
		}
	}
	if err := b.RestoreOrdinal(3); err == nil {
		t.Fatal("restore moved the ordinal back")
	}
}
