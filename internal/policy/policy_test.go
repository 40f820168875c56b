package policy

import (
	"math"
	"testing"

	"blowfish/internal/domain"
	"blowfish/internal/secgraph"
)

func TestPolicyBasics(t *testing.T) {
	d := domain.MustLine("v", 5)
	p := Differential(d)
	if !p.Unconstrained() {
		t.Fatal("Differential policy reports constrained")
	}
	if p.Domain() != d {
		t.Fatal("Domain not propagated")
	}
	if got, want := p.Name(), "(T, full, In)"; got != want {
		t.Fatalf("Name = %q, want %q", got, want)
	}
	g := secgraph.MustDistanceThreshold(d, 2)
	p2 := New(g)
	if p2.Graph() != g {
		t.Fatal("Graph not propagated")
	}
}

type trueConstraint struct{}

func (trueConstraint) Satisfied(*domain.Dataset) bool { return true }
func (trueConstraint) Name() string                   { return "IQ(true)" }

func TestConstrainedPolicy(t *testing.T) {
	d := domain.MustLine("v", 4)
	p := NewConstrained(secgraph.NewComplete(d), trueConstraint{})
	if p.Unconstrained() {
		t.Fatal("constrained policy reports unconstrained")
	}
	if got, want := p.Name(), "(T, full, IQ(true))"; got != want {
		t.Fatalf("Name = %q, want %q", got, want)
	}
	if _, err := p.HistogramSensitivity(); err != ErrConstrained {
		t.Fatalf("HistogramSensitivity on constrained policy: err = %v, want ErrConstrained", err)
	}
	if _, err := p.SumSensitivity(); err != ErrConstrained {
		t.Fatalf("SumSensitivity err = %v, want ErrConstrained", err)
	}
	if _, err := p.LinearQuerySensitivity([]float64{1}); err != ErrConstrained {
		t.Fatalf("LinearQuerySensitivity err = %v, want ErrConstrained", err)
	}
}

func TestHistogramSensitivityAnalytic(t *testing.T) {
	d := domain.MustLine("v", 6)
	ident, err := domain.Identity(d)
	if err != nil {
		t.Fatalf("Identity: %v", err)
	}
	cases := []struct {
		g    secgraph.Graph
		want float64
	}{
		{secgraph.NewComplete(d), 2},
		{secgraph.NewAttribute(d), 2},
		{secgraph.MustDistanceThreshold(d, 2), 2},
		{secgraph.NewPartition(ident), 0}, // edgeless
	}
	for _, c := range cases {
		got, err := New(c.g).HistogramSensitivity()
		if err != nil {
			t.Fatalf("HistogramSensitivity(%s): %v", c.g.Name(), err)
		}
		if got != c.want {
			t.Errorf("HistogramSensitivity(%s) = %v, want %v", c.g.Name(), got, c.want)
		}
	}
}

// histogramQuery adapts Dataset.Histogram to the oracle's query signature.
func histogramQuery(ds *domain.Dataset) []float64 {
	h, err := ds.Histogram()
	if err != nil {
		panic(err)
	}
	return h
}

func cumulativeQuery(ds *domain.Dataset) []float64 {
	s, err := ds.CumulativeHistogram()
	if err != nil {
		panic(err)
	}
	return s
}

func TestHistogramSensitivityMatchesOracle(t *testing.T) {
	d := domain.MustLine("v", 5)
	part, err := domain.NewUniformGrid(d, []int{2})
	if err != nil {
		t.Fatalf("NewUniformGrid: %v", err)
	}
	graphs := []secgraph.Graph{
		secgraph.NewComplete(d),
		secgraph.MustDistanceThreshold(d, 1),
		secgraph.MustDistanceThreshold(d, 3),
		secgraph.NewPartition(part),
	}
	for _, g := range graphs {
		p := New(g)
		want, err := p.HistogramSensitivity()
		if err != nil {
			t.Fatalf("HistogramSensitivity(%s): %v", g.Name(), err)
		}
		o, err := NewOracle(p, 3)
		if err != nil {
			t.Fatalf("NewOracle: %v", err)
		}
		if got := o.Sensitivity(histogramQuery); got != want {
			t.Errorf("%s: oracle S(h,P) = %v, analytic = %v", g.Name(), got, want)
		}
	}
}

func TestCumulativeSensitivityMatchesOracle(t *testing.T) {
	d := domain.MustLine("v", 6)
	graphs := []secgraph.Graph{
		secgraph.NewComplete(d),              // |T|-1 = 5
		secgraph.MustDistanceThreshold(d, 1), // line graph: 1
		secgraph.MustDistanceThreshold(d, 2), // 2
		secgraph.MustDistanceThreshold(d, 4), // 4
	}
	for _, g := range graphs {
		p := New(g)
		want, err := p.CumulativeHistogramSensitivity()
		if err != nil {
			t.Fatalf("CumulativeHistogramSensitivity(%s): %v", g.Name(), err)
		}
		o, err := NewOracle(p, 3)
		if err != nil {
			t.Fatalf("NewOracle: %v", err)
		}
		if got := o.Sensitivity(cumulativeQuery); got != want {
			t.Errorf("%s: oracle S(S_T,P) = %v, analytic = %v", g.Name(), got, want)
		}
	}
	// Known values from the paper.
	p := New(secgraph.NewComplete(d))
	s, err := p.CumulativeHistogramSensitivity()
	if err != nil || s != 5 {
		t.Errorf("complete cumulative sensitivity = %v (err %v), want |T|-1 = 5", s, err)
	}
	line, err := secgraph.NewLine(d)
	if err != nil {
		t.Fatalf("NewLine: %v", err)
	}
	s, err = New(line).CumulativeHistogramSensitivity()
	if err != nil || s != 1 {
		t.Errorf("line cumulative sensitivity = %v (err %v), want 1", s, err)
	}
	// Multi-dimensional domains are rejected.
	if _, err := New(secgraph.NewComplete(domain.MustGrid(3, 3))).CumulativeHistogramSensitivity(); err == nil {
		t.Error("cumulative sensitivity accepted a 2-D domain")
	}
}

func TestSumSensitivityLemma61(t *testing.T) {
	// Lemma 6.1: S(qsum, P) = 2·d(T) under G^full, 2·max|A| under G^attr,
	// 2θ under G^{L1,θ}, 2·max_j d(Pj) under G^P.
	d := domain.MustNew(
		domain.Attribute{Name: "a", Size: 4},
		domain.Attribute{Name: "b", Size: 7},
	)
	part, err := domain.NewUniformGrid(d, []int{2, 3})
	if err != nil {
		t.Fatalf("NewUniformGrid: %v", err)
	}
	cases := []struct {
		g    secgraph.Graph
		want float64
	}{
		{secgraph.NewComplete(d), 2 * 9},              // 2·d(T) = 2·(3+6)
		{secgraph.NewAttribute(d), 2 * 6},             // 2·max(3,6)
		{secgraph.MustDistanceThreshold(d, 2), 2 * 2}, // 2θ
		{secgraph.NewPartition(part), 2 * 3},          // blocks are 2x3 boxes: d = 1+2
	}
	for _, c := range cases {
		got, err := New(c.g).SumSensitivity()
		if err != nil {
			t.Fatalf("SumSensitivity(%s): %v", c.g.Name(), err)
		}
		if got != c.want {
			t.Errorf("SumSensitivity(%s) = %v, want %v", c.g.Name(), got, c.want)
		}
	}
}

func TestLinearQuerySensitivity(t *testing.T) {
	d := domain.MustLine("salary", 11) // values 0..10
	w := []float64{0.5, -2, 1}
	// G^full: (b-a)·max|w| = 10·2 = 20 (Section 5's example).
	got, err := New(secgraph.NewComplete(d)).LinearQuerySensitivity(w)
	if err != nil {
		t.Fatalf("LinearQuerySensitivity: %v", err)
	}
	if got != 20 {
		t.Errorf("full-domain linear sensitivity = %v, want 20", got)
	}
	// G^{d,θ}: θ·max|w| = 3·2 = 6.
	got, err = New(secgraph.MustDistanceThreshold(d, 3)).LinearQuerySensitivity(w)
	if err != nil {
		t.Fatalf("LinearQuerySensitivity: %v", err)
	}
	if got != 6 {
		t.Errorf("θ=3 linear sensitivity = %v, want 6", got)
	}
	// Oracle cross-check with per-id weights.
	p := New(secgraph.MustDistanceThreshold(domain.MustLine("v", 5), 2))
	o, err := NewOracle(p, 3)
	if err != nil {
		t.Fatalf("NewOracle: %v", err)
	}
	weights := []float64{1, -0.5, 2}
	linear := func(ds *domain.Dataset) []float64 {
		var sum float64
		for i := 0; i < ds.Len(); i++ {
			sum += weights[i] * float64(ds.At(i))
		}
		return []float64{sum}
	}
	want, err := p.LinearQuerySensitivity(weights)
	if err != nil {
		t.Fatalf("LinearQuerySensitivity: %v", err)
	}
	if got := o.Sensitivity(linear); got != want {
		t.Errorf("oracle linear sensitivity = %v, analytic = %v", got, want)
	}
}

func TestPartitionHistogramSensitivity(t *testing.T) {
	d := domain.MustLine("v", 8)
	fine, err := domain.NewUniformGrid(d, []int{2}) // 4 blocks
	if err != nil {
		t.Fatalf("NewUniformGrid: %v", err)
	}
	coarse, err := domain.NewUniformGrid(d, []int{4}) // 2 blocks
	if err != nil {
		t.Fatalf("NewUniformGrid: %v", err)
	}
	// Policy partition = fine; histogram over coarse: fine refines coarse,
	// so the coarse histogram has sensitivity 0 (exact release).
	pFine := New(secgraph.NewPartition(fine))
	s, err := pFine.PartitionHistogramSensitivity(coarse)
	if err != nil {
		t.Fatalf("PartitionHistogramSensitivity: %v", err)
	}
	if s != 0 {
		t.Errorf("refining partition sensitivity = %v, want 0", s)
	}
	// Policy partition = coarse; histogram over fine: secret pairs cross
	// fine blocks, sensitivity 2.
	pCoarse := New(secgraph.NewPartition(coarse))
	s, err = pCoarse.PartitionHistogramSensitivity(fine)
	if err != nil {
		t.Fatalf("PartitionHistogramSensitivity: %v", err)
	}
	if s != 2 {
		t.Errorf("crossing partition sensitivity = %v, want 2", s)
	}
	// Complete graph: 2 as soon as the histogram has >= 2 occupied blocks.
	s, err = Differential(d).PartitionHistogramSensitivity(coarse)
	if err != nil {
		t.Fatalf("PartitionHistogramSensitivity: %v", err)
	}
	if s != 2 {
		t.Errorf("complete-graph partition sensitivity = %v, want 2", s)
	}
	// Oracle cross-checks.
	for name, pol := range map[string]*Policy{"fine": pFine, "coarse": pCoarse} {
		for partName, part := range map[string]domain.Partition{"fine": fine, "coarse": coarse} {
			want, err := pol.PartitionHistogramSensitivity(part)
			if err != nil {
				t.Fatalf("PartitionHistogramSensitivity: %v", err)
			}
			o, err := NewOracle(pol, 2)
			if err != nil {
				t.Fatalf("NewOracle: %v", err)
			}
			q := func(ds *domain.Dataset) []float64 {
				h, err := ds.PartitionHistogram(part)
				if err != nil {
					panic(err)
				}
				return h
			}
			if got := o.Sensitivity(q); got != want {
				t.Errorf("policy %s over partition %s: oracle = %v, analytic = %v", name, partName, got, want)
			}
		}
	}
	// Mismatched domain.
	other, err := domain.NewUniformGrid(domain.MustLine("w", 9), []int{3})
	if err != nil {
		t.Fatalf("NewUniformGrid: %v", err)
	}
	if _, err := pFine.PartitionHistogramSensitivity(other); err == nil {
		t.Error("foreign-domain partition accepted")
	}
}

func TestForEachDataset(t *testing.T) {
	d := domain.MustLine("v", 3)
	count := 0
	err := ForEachDataset(d, 2, func(ds *domain.Dataset) bool {
		count++
		return true
	})
	if err != nil {
		t.Fatalf("ForEachDataset: %v", err)
	}
	if count != 9 {
		t.Fatalf("enumerated %d datasets, want 9", count)
	}
	// Early stop.
	count = 0
	if err := ForEachDataset(d, 2, func(*domain.Dataset) bool { count++; return count < 4 }); err != nil {
		t.Fatalf("ForEachDataset: %v", err)
	}
	if count != 4 {
		t.Fatalf("early stop enumerated %d, want 4", count)
	}
	// Size limit.
	big := domain.MustLine("v", 1000)
	if err := ForEachDataset(big, 4, func(*domain.Dataset) bool { return true }); err == nil {
		t.Fatal("oversized enumeration accepted")
	}
	if err := ForEachDataset(d, 0, func(*domain.Dataset) bool { return true }); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestUnconstrainedNeighbors(t *testing.T) {
	d := domain.MustLine("v", 4)
	p := New(secgraph.MustDistanceThreshold(d, 1)) // line graph
	o, err := NewOracle(p, 2)
	if err != nil {
		t.Fatalf("NewOracle: %v", err)
	}
	d1, err := domain.FromPoints(d, []domain.Point{0, 2})
	if err != nil {
		t.Fatalf("FromPoints: %v", err)
	}
	// Neighbor: change tuple 1 from 2 to 3 (adjacent on the line).
	d2, err := domain.FromPoints(d, []domain.Point{0, 3})
	if err != nil {
		t.Fatalf("FromPoints: %v", err)
	}
	if !o.IsNeighbor(d1, d2) {
		t.Error("adjacent single-tuple change not a neighbor")
	}
	// Not a neighbor: value jump of 2 on the line graph.
	d3, err := domain.FromPoints(d, []domain.Point{0, 0})
	if err != nil {
		t.Fatalf("FromPoints: %v", err)
	}
	if o.IsNeighbor(d1, d3) {
		t.Error("non-adjacent change reported as neighbor")
	}
	// Not a neighbor: two tuples changed.
	d4, err := domain.FromPoints(d, []domain.Point{1, 3})
	if err != nil {
		t.Fatalf("FromPoints: %v", err)
	}
	if o.IsNeighbor(d1, d4) {
		t.Error("two-tuple change reported as neighbor")
	}
	// Identical datasets are not neighbors.
	if o.IsNeighbor(d1, d1) {
		t.Error("dataset is its own neighbor")
	}
}

func TestNeighborPairCountComplete(t *testing.T) {
	// Complete graph over |T|=3, n=2: neighbors = pairs differing in exactly
	// one tuple = #datasets × tuples × (|T|-1) / 2 = 9·2·2/2 = 18.
	d := domain.MustLine("v", 3)
	o, err := NewOracle(Differential(d), 2)
	if err != nil {
		t.Fatalf("NewOracle: %v", err)
	}
	count := 0
	o.ForEachNeighborPair(func(d1, d2 *domain.Dataset) bool { count++; return true })
	if count != 18 {
		t.Fatalf("neighbor pairs = %d, want 18", count)
	}
}

func TestEq9HopDistanceScaling(t *testing.T) {
	// Eq. (9): for unconstrained policies an adversary distinguishes x from
	// y with effective budget ε·d_G(x, y). Verify the hop distances that
	// drive it: under G^{d,θ} a pair at L1 distance L has hop distance
	// ceil(L/θ); under G^P cross-partition pairs are unprotected (+Inf).
	d := domain.MustLine("v", 100)
	g := secgraph.MustDistanceThreshold(d, 10)
	if got, want := g.HopDistance(0, 95), 10.0; got != want {
		t.Errorf("hop distance = %v, want %v", got, want)
	}
	part, err := domain.NewUniformGrid(d, []int{50})
	if err != nil {
		t.Fatalf("NewUniformGrid: %v", err)
	}
	pg := secgraph.NewPartition(part)
	if !math.IsInf(pg.HopDistance(0, 99), 1) {
		t.Error("cross-partition hop distance should be +Inf")
	}
}
