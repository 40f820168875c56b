package constraints

import (
	"errors"
	"testing"

	"blowfish/internal/domain"
	"blowfish/internal/policy"
	"blowfish/internal/secgraph"
)

// paperDomain is the Example 8.1 domain: A1={a1,a2}, A2={b1,b2},
// A3={c1,c2,c3}.
func paperDomain(t *testing.T) *domain.Domain {
	t.Helper()
	return domain.MustNew(
		domain.Attribute{Name: "A1", Size: 2},
		domain.Attribute{Name: "A2", Size: 2},
		domain.Attribute{Name: "A3", Size: 3},
	)
}

func TestCountQueryBasics(t *testing.T) {
	d := domain.MustLine("v", 6)
	q := CountQuery{Name: "v<3", Pred: func(p domain.Point) bool { return p < 3 }}
	ds := domain.NewDataset(d)
	for _, v := range []int{0, 1, 4, 5, 2} {
		ds.MustAdd(domain.Point(v))
	}
	if got, want := q.Count(ds), 3.0; got != want {
		t.Fatalf("Count = %v, want %v", got, want)
	}
	if !q.Lifts(4, 1) || q.Lifts(1, 4) {
		t.Fatal("Lifts wrong")
	}
	if !q.Lowers(1, 4) || q.Lowers(4, 1) {
		t.Fatal("Lowers wrong")
	}
	if q.Lifts(0, 1) || q.Lowers(0, 1) {
		t.Fatal("within-predicate change should neither lift nor lower")
	}
}

func TestSetValidationAndSatisfied(t *testing.T) {
	d := domain.MustLine("v", 4)
	q := CountQuery{Name: "v<2", Pred: func(p domain.Point) bool { return p < 2 }}
	if _, err := NewSet(d, []CountQuery{q}, nil); err == nil {
		t.Error("answer count mismatch accepted")
	}
	if _, err := NewSet(d, []CountQuery{{Name: "nil"}}, []float64{0}); err == nil {
		t.Error("nil predicate accepted")
	}
	if _, err := NewSet(nil, nil, nil); err == nil {
		t.Error("nil domain accepted")
	}
	ds := domain.NewDataset(d)
	ds.MustAdd(0)
	ds.MustAdd(3)
	s, err := FromDataset([]CountQuery{q}, ds)
	if err != nil {
		t.Fatalf("FromDataset: %v", err)
	}
	if s.Answers()[0] != 1 {
		t.Fatalf("answer = %v, want 1", s.Answers()[0])
	}
	if !s.Satisfied(ds) {
		t.Fatal("defining dataset not satisfied")
	}
	other := domain.NewDataset(d)
	other.MustAdd(0)
	other.MustAdd(1)
	if s.Satisfied(other) {
		t.Fatal("violating dataset satisfied")
	}
	foreign := domain.NewDataset(domain.MustLine("w", 4))
	foreign.MustAdd(0)
	if s.Satisfied(foreign) {
		t.Fatal("foreign-domain dataset satisfied")
	}
}

// Example 8.1: the marginal [A1, A2] is sparse w.r.t. the full-domain
// secret graph.
func TestExample81Sparse(t *testing.T) {
	d := paperDomain(t)
	m, err := NewMarginal(d, []int{0, 1})
	if err != nil {
		t.Fatalf("NewMarginal: %v", err)
	}
	ds := domain.NewDataset(d)
	ds.MustAdd(d.MustEncode(0, 0, 0))
	set, err := m.Set(ds)
	if err != nil {
		t.Fatalf("Set: %v", err)
	}
	sparse, err := set.IsSparse(secgraph.NewComplete(d))
	if err != nil {
		t.Fatalf("IsSparse: %v", err)
	}
	if !sparse {
		t.Fatal("Example 8.1 marginal not sparse")
	}
}

// Example 8.2 / 8.3: the policy graph of the [A1,A2] marginal under
// full-domain secrets is the complete digraph on 4 queries plus (v+,v−):
// α = 4, ξ = 1, S(h,P) = 8 = 2·size(C).
func TestExample82PolicyGraph(t *testing.T) {
	d := paperDomain(t)
	m, err := NewMarginal(d, []int{0, 1})
	if err != nil {
		t.Fatalf("NewMarginal: %v", err)
	}
	ds := domain.NewDataset(d)
	ds.MustAdd(d.MustEncode(0, 0, 0))
	set, err := m.Set(ds)
	if err != nil {
		t.Fatalf("Set: %v", err)
	}
	g := secgraph.NewComplete(d)
	pg, err := BuildPolicyGraph(set, g)
	if err != nil {
		t.Fatalf("BuildPolicyGraph: %v", err)
	}
	if pg.NumQueries() != 4 {
		t.Fatalf("queries = %d, want 4", pg.NumQueries())
	}
	// Every ordered query pair is an edge; no v+/v− edges except (v+,v−).
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j && !pg.HasEdge(i, j) {
				t.Fatalf("missing query edge (%d,%d)", i, j)
			}
		}
		if pg.HasEdge(pg.VPlus(), i) {
			t.Fatalf("unexpected edge v+→q%d", i)
		}
		if pg.HasEdge(i, pg.VMinus()) {
			t.Fatalf("unexpected edge q%d→v−", i)
		}
	}
	if !pg.HasEdge(pg.VPlus(), pg.VMinus()) {
		t.Fatal("missing (v+,v−) edge")
	}
	if got, want := pg.Alpha(), 4; got != want {
		t.Fatalf("α = %d, want %d", got, want)
	}
	if got, want := pg.Xi(), 1; got != want {
		t.Fatalf("ξ = %d, want %d", got, want)
	}
	if got, want := pg.SensitivityBound(), 8.0; got != want {
		t.Fatalf("S bound = %v, want %v", got, want)
	}
	// Theorem 8.4 closed form agrees.
	if got := m.FullDomainSensitivity(); got != 8 {
		t.Fatalf("Theorem 8.4 sensitivity = %v, want 8", got)
	}
}

// Theorem 8.4 against the exact Definition 4.1 oracle on a small instance:
// domain 2×2, marginal [A1], full-domain secrets, n=2.
func TestTheorem84MatchesOracle(t *testing.T) {
	d := domain.MustNew(
		domain.Attribute{Name: "A1", Size: 2},
		domain.Attribute{Name: "A2", Size: 2},
	)
	m, err := NewMarginal(d, []int{0})
	if err != nil {
		t.Fatalf("NewMarginal: %v", err)
	}
	ref := domain.NewDataset(d)
	ref.MustAdd(d.MustEncode(0, 0))
	ref.MustAdd(d.MustEncode(1, 0))
	set, err := m.Set(ref) // A1 marginal = (1, 1)
	if err != nil {
		t.Fatalf("Set: %v", err)
	}
	g := secgraph.NewComplete(d)
	pol := policy.NewConstrained(g, set)
	o, err := policy.NewOracle(pol, 2)
	if err != nil {
		t.Fatalf("NewOracle: %v", err)
	}
	hist := func(ds *domain.Dataset) []float64 {
		h, err := ds.Histogram()
		if err != nil {
			panic(err)
		}
		return h
	}
	want := m.FullDomainSensitivity() // 2·size(C) = 4
	if got := o.Sensitivity(hist); got != want {
		t.Fatalf("oracle S(h,P) = %v, Theorem 8.4 says %v", got, want)
	}
	pg, err := BuildPolicyGraph(set, g)
	if err != nil {
		t.Fatalf("BuildPolicyGraph: %v", err)
	}
	if got := pg.SensitivityBound(); got != want {
		t.Fatalf("policy graph bound = %v, want %v", got, want)
	}
}

// Theorem 8.5 against the oracle: domain 2×2×2, disjoint marginals [A1] and
// [A2], attribute secrets, n=2.
func TestTheorem85MatchesOracle(t *testing.T) {
	d := domain.MustNew(
		domain.Attribute{Name: "A1", Size: 2},
		domain.Attribute{Name: "A2", Size: 2},
		domain.Attribute{Name: "A3", Size: 2},
	)
	m1, err := NewMarginal(d, []int{0})
	if err != nil {
		t.Fatalf("NewMarginal: %v", err)
	}
	m2, err := NewMarginal(d, []int{1})
	if err != nil {
		t.Fatalf("NewMarginal: %v", err)
	}
	want, err := DisjointMarginalsAttributeSensitivity([]*Marginal{m1, m2})
	if err != nil {
		t.Fatalf("DisjointMarginalsAttributeSensitivity: %v", err)
	}
	if want != 4 { // 2·max(2,2)
		t.Fatalf("Theorem 8.5 sensitivity = %v, want 4", want)
	}
	ref := domain.NewDataset(d)
	ref.MustAdd(d.MustEncode(0, 0, 0))
	ref.MustAdd(d.MustEncode(1, 1, 0))
	set, err := UnionSet([]*Marginal{m1, m2}, ref)
	if err != nil {
		t.Fatalf("UnionSet: %v", err)
	}
	g := secgraph.NewAttribute(d)
	sparse, err := set.IsSparse(g)
	if err != nil {
		t.Fatalf("IsSparse: %v", err)
	}
	if !sparse {
		t.Fatal("disjoint marginals not sparse w.r.t. G^attr")
	}
	pg, err := BuildPolicyGraph(set, g)
	if err != nil {
		t.Fatalf("BuildPolicyGraph: %v", err)
	}
	if got := pg.SensitivityBound(); got != want {
		t.Fatalf("policy graph bound = %v, want %v", got, want)
	}
	o, err := policy.NewEdgeMoveOracle(policy.NewConstrained(g, set), 2)
	if err != nil {
		t.Fatalf("NewOracle: %v", err)
	}
	hist := func(ds *domain.Dataset) []float64 {
		h, err := ds.Histogram()
		if err != nil {
			panic(err)
		}
		return h
	}
	if got := o.Sensitivity(hist); got != want {
		t.Fatalf("oracle S(h,P) = %v, Theorem 8.5 says %v", got, want)
	}
}

// Overlapping marginals break sparsity under full-domain secrets; the
// coarse Corollary 8.3 bound takes over.
func TestNonSparseFallsBackToCoarseBound(t *testing.T) {
	d := paperDomain(t)
	m1, err := NewMarginal(d, []int{0})
	if err != nil {
		t.Fatalf("NewMarginal: %v", err)
	}
	m2, err := NewMarginal(d, []int{0, 1}) // shares A1 with m1
	if err != nil {
		t.Fatalf("NewMarginal: %v", err)
	}
	ds := domain.NewDataset(d)
	ds.MustAdd(d.MustEncode(0, 0, 0))
	set, err := UnionSet([]*Marginal{m1, m2}, ds)
	if err != nil {
		t.Fatalf("UnionSet: %v", err)
	}
	g := secgraph.NewComplete(d)
	sparse, err := set.IsSparse(g)
	if err != nil {
		t.Fatalf("IsSparse: %v", err)
	}
	if sparse {
		t.Fatal("overlapping marginals reported sparse")
	}
	if _, err := BuildPolicyGraph(set, g); !errors.Is(err, ErrNotSparse) {
		t.Fatalf("BuildPolicyGraph error = %v, want ErrNotSparse", err)
	}
	sens, wasSparse, err := HistogramSensitivity(set, g)
	if err != nil {
		t.Fatalf("HistogramSensitivity: %v", err)
	}
	if wasSparse {
		t.Fatal("HistogramSensitivity reported sparse")
	}
	if want := set.CoarseSensitivityBound(); sens != want {
		t.Fatalf("fallback sensitivity = %v, want %v", sens, want)
	}
	if set.CoarseSensitivityBound() != 2*float64(set.Len()) {
		t.Fatalf("coarse bound = %v", set.CoarseSensitivityBound())
	}
	// DisjointMarginalsAttributeSensitivity rejects the overlap.
	if _, err := DisjointMarginalsAttributeSensitivity([]*Marginal{m1, m2}); err == nil {
		t.Error("overlapping marginals accepted by Theorem 8.5 helper")
	}
}

func TestMarginalValidation(t *testing.T) {
	d := paperDomain(t)
	if _, err := NewMarginal(d, nil); err == nil {
		t.Error("empty marginal accepted")
	}
	if _, err := NewMarginal(d, []int{0, 1, 2}); err == nil {
		t.Error("full marginal accepted (must be strict subset)")
	}
	if _, err := NewMarginal(d, []int{0, 0}); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := NewMarginal(d, []int{7}); err == nil {
		t.Error("out-of-range attribute accepted")
	}
	m, err := NewMarginal(d, []int{1, 2})
	if err != nil {
		t.Fatalf("NewMarginal: %v", err)
	}
	if m.Size() != 6 {
		t.Fatalf("Size = %d, want 6", m.Size())
	}
	if len(m.Queries()) != 6 {
		t.Fatalf("Queries = %d, want 6", len(m.Queries()))
	}
	// Marginal queries partition the domain: each point satisfies exactly
	// one cell predicate.
	if err := d.Points(func(p domain.Point) bool {
		hits := 0
		for _, q := range m.Queries() {
			if q.Pred(p) {
				hits++
			}
		}
		if hits != 1 {
			t.Fatalf("point %d satisfies %d marginal cells", p, hits)
		}
		return true
	}); err != nil {
		t.Fatalf("Points: %v", err)
	}
}

func TestSetAccessorsAndCriticalPairs(t *testing.T) {
	d := domain.MustLine("v", 6)
	q := CountQuery{Name: "v<3", Pred: func(p domain.Point) bool { return p < 3 }}
	ds := domain.NewDataset(d)
	ds.MustAdd(1)
	set, err := FromDataset([]CountQuery{q}, ds)
	if err != nil {
		t.Fatalf("FromDataset: %v", err)
	}
	if set.Domain() != d {
		t.Fatal("Domain accessor wrong")
	}
	if set.Name() != "IQ{v<3}" {
		t.Fatalf("Name = %q", set.Name())
	}
	if set.Len() != 1 || len(set.Queries()) != 1 {
		t.Fatal("query accessors wrong")
	}
	// Critical pairs under the line graph: only the boundary edge (2,3).
	crit, err := CriticalPairs(q, secgraph.MustDistanceThreshold(d, 1))
	if err != nil {
		t.Fatalf("CriticalPairs: %v", err)
	}
	if len(crit) != 1 || crit[0] != [2]domain.Point{2, 3} {
		t.Fatalf("critical pairs = %v", crit)
	}
	if _, err := CriticalPairs(CountQuery{Name: "nil"}, secgraph.NewComplete(d)); err == nil {
		t.Error("nil predicate accepted")
	}
	// Marginal accessor.
	md := domain.MustNew(domain.Attribute{Name: "a", Size: 2}, domain.Attribute{Name: "b", Size: 2})
	m, err := NewMarginal(md, []int{1})
	if err != nil {
		t.Fatalf("NewMarginal: %v", err)
	}
	// Marginal.Set rejects foreign datasets.
	foreign := domain.NewDataset(d)
	foreign.MustAdd(0)
	if _, err := m.Set(foreign); err == nil {
		t.Error("foreign dataset accepted by Marginal.Set")
	}
	// UnionSet rejects foreign datasets and empty input.
	if _, err := UnionSet([]*Marginal{m}, foreign); err == nil {
		t.Error("foreign dataset accepted by UnionSet")
	}
	if _, err := UnionSet(nil, foreign); err == nil {
		t.Error("empty UnionSet accepted")
	}
}

func TestRectangleSetForeignDataset(t *testing.T) {
	d := domain.MustGrid(5, 5)
	rc, err := NewRectangleConstraints(d, []Rect{{Lo: []int{0, 0}, Hi: []int{1, 1}}}, 1)
	if err != nil {
		t.Fatalf("NewRectangleConstraints: %v", err)
	}
	foreign := domain.NewDataset(domain.MustLine("v", 4))
	foreign.MustAdd(0)
	if _, err := rc.Set(foreign); err == nil {
		t.Error("foreign dataset accepted by RectangleConstraints.Set")
	}
}

// TestCountSurvivesMidScanMutation forces the dataset's generation to
// change on every zero-copy scan (the predicate itself mutates the
// dataset): Count must neither loop forever nor read torn state — after the
// retry budget it counts over a private snapshot and terminates.
func TestCountSurvivesMidScanMutation(t *testing.T) {
	d := domain.MustLine("v", 8)
	ds := domain.NewDataset(d)
	for i := 0; i < 4; i++ {
		ds.MustAdd(domain.Point(i))
	}
	evil := CountQuery{Name: "mutates", Pred: func(p domain.Point) bool {
		ds.MustAdd(0) // advance the generation mid-scan
		return true
	}}
	got := evil.Count(ds)
	// Every scan sees at least the four original tuples; the exact value
	// depends on how many retries the growth forced, but it must cover the
	// snapshot it settled on.
	if got < 4 {
		t.Fatalf("Count = %v, want >= 4", got)
	}
	// A well-behaved query still counts exactly after the churn.
	all := CountQuery{Name: "all", Pred: func(domain.Point) bool { return true }}
	if n := all.Count(ds); n != float64(ds.Len()) {
		t.Fatalf("Count = %v, want %d", n, ds.Len())
	}
}
