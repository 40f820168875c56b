// Package blowfish is a from-scratch Go implementation of Blowfish privacy
// (He, Machanavajjhala, Ding — SIGMOD 2014): a class of privacy definitions
// that generalizes ε-differential privacy with a policy P = (T, G, I_Q)
// specifying which information is secret (a discriminative secret graph G
// over the data domain T) and which deterministic constraints Q an
// adversary may already know.
//
// The package is a facade over the implementation packages in internal/:
// domains and datasets, the standard secret-graph specifications, policies
// and their query sensitivities, calibrated mechanisms (Laplace histograms,
// SuLQ k-means, the ordered and ordered hierarchical mechanisms for
// cumulative histograms and range queries), constraint handling with
// policy graphs, and privacy-budget accounting.
//
// A minimal release looks like:
//
//	dom, _ := blowfish.LineDomain("capital-loss", 4357)
//	g, _ := blowfish.DistanceThreshold(dom, 100)   // protect values within 100
//	pol := blowfish.NewPolicy(g)
//	rel, _ := blowfish.NewRangeReleaser(pol, data, 16, 0.5, blowfish.NewSource(1))
//	count, _ := rel.Range(1500, 2500)
//
// See the examples/ directory for complete programs and DESIGN.md for the
// mapping between this library and the paper.
package blowfish

import (
	"errors"

	"blowfish/internal/composition"
	"blowfish/internal/constraints"
	"blowfish/internal/domain"
	"blowfish/internal/engine"
	"blowfish/internal/infer"
	"blowfish/internal/kmeans"
	"blowfish/internal/noise"
	"blowfish/internal/ordered"
	"blowfish/internal/policy"
	"blowfish/internal/secgraph"
)

// Core data model re-exports.
type (
	// Domain is a discrete multi-attribute data domain T.
	Domain = domain.Domain
	// Attribute is one categorical dimension of a domain.
	Attribute = domain.Attribute
	// Point is the dense index of a domain value.
	Point = domain.Point
	// Dataset is an ordered collection of identified tuples.
	Dataset = domain.Dataset
	// Partition divides a domain into disjoint blocks.
	Partition = domain.Partition
	// SecretGraph is a discriminative secret graph G.
	SecretGraph = secgraph.Graph
	// Policy is a Blowfish policy P = (T, G, I_Q).
	Policy = policy.Policy
	// Source is a deterministic noise stream.
	Source = noise.Source
	// Accountant tracks cumulative privacy budget.
	Accountant = composition.Accountant
	// AccountantState is a serializable ledger snapshot (durable restarts).
	AccountantState = composition.AccountantState
	// BudgetRelease is one entry of an accountant's release log.
	BudgetRelease = composition.Release
	// CountQuery is a count query usable as a public constraint.
	CountQuery = constraints.CountQuery
	// ConstraintSet is publicly known auxiliary knowledge Q with answers.
	ConstraintSet = constraints.Set
	// Marginal is a known marginal (cuboid) constraint.
	Marginal = constraints.Marginal
	// KMeansResult is a clustering outcome: centroids and objective.
	KMeansResult = kmeans.Result
)

// NewDomain constructs a domain from attributes.
func NewDomain(attrs ...Attribute) (*Domain, error) { return domain.New(attrs...) }

// LineDomain constructs a one-dimensional totally ordered domain.
func LineDomain(name string, size int) (*Domain, error) { return domain.Line(name, size) }

// GridDomain constructs a two-dimensional location grid.
func GridDomain(width, height int) (*Domain, error) { return domain.Grid(width, height) }

// NewDataset creates an empty dataset over d.
func NewDataset(d *Domain) *Dataset { return domain.NewDataset(d) }

// UniformGridPartition divides each attribute into cells of the given
// widths.
func UniformGridPartition(d *Domain, widths []int) (Partition, error) {
	return domain.NewUniformGrid(d, widths)
}

// UniformPartitionByCount divides the domain into approximately the given
// number of equal blocks, preserving aspect ratio.
func UniformPartitionByCount(d *Domain, blocks int) (Partition, error) {
	return domain.NewUniformGridByCount(d, blocks)
}

// NewSource creates a deterministic noise source.
func NewSource(seed int64) *Source { return noise.NewSource(seed) }

// NoiseKey is the 32-byte key of a keyed session (NewKeyedSession).
type NoiseKey = noise.Key

// SeedKey derives a NoiseKey from a 64-bit seed (SHA-256 of its bytes):
// the noise is exactly as predictable as the seed.
func SeedKey(seed int64) NoiseKey { return noise.SeedKey(seed) }

// NewAccountant creates a privacy budget accountant (sequential composition
// per Theorem 4.1; SpendParallel implements Theorem 4.2).
func NewAccountant(budget float64) (*Accountant, error) { return composition.NewAccountant(budget) }

// FullDomain returns the full-domain secret specification S^full: the
// complete graph, recovering differential privacy.
func FullDomain(d *Domain) SecretGraph { return secgraph.NewComplete(d) }

// AttributeSecrets returns the per-attribute specification S^attr.
func AttributeSecrets(d *Domain) SecretGraph { return secgraph.NewAttribute(d) }

// PartitionedSecrets returns the partitioned specification S^P.
func PartitionedSecrets(p Partition) SecretGraph { return secgraph.NewPartition(p) }

// DistanceThreshold returns the metric specification S^{d,θ} under L1.
func DistanceThreshold(d *Domain, theta float64) (SecretGraph, error) {
	return secgraph.NewDistanceThreshold(d, theta)
}

// LineGraph returns the line-graph specification G^{d,1} over a
// one-dimensional ordered domain (the ordered mechanism's policy).
func LineGraph(d *Domain) (SecretGraph, error) { return secgraph.NewLine(d) }

// GraphSpec is a serializable secret-graph specification: the paper's
// standard kinds by name, arbitrary edge lists (kind "explicit"), and
// composition operators (kind "compose" with op "union", "intersect" or
// "product"). Specs are plain JSON, so policies defined by clients can be
// stored, journaled and rebuilt deterministically.
type GraphSpec = secgraph.Spec

// BuildGraph constructs the secret graph spec declares over d. For kind
// "partition" the underlying partition is returned alongside (nil
// otherwise).
func BuildGraph(d *Domain, spec GraphSpec) (SecretGraph, Partition, error) {
	return spec.Build(d)
}

// GraphStats reports the edge and connected-component counts of an
// explicit (adjacency-list) secret graph; ok is false for implicit kinds,
// whose structure is analytic rather than enumerated.
func GraphStats(g SecretGraph) (edges, components int, ok bool) {
	e, isExplicit := g.(*secgraph.Explicit)
	if !isExplicit {
		return 0, 0, false
	}
	return e.NumEdges(), e.Components(), true
}

// NewPolicy creates an unconstrained policy (T, G, I_n).
func NewPolicy(g SecretGraph) *Policy { return policy.New(g) }

// DifferentialPrivacy returns the policy equivalent to ε-differential
// privacy over d.
func DifferentialPrivacy(d *Domain) *Policy { return policy.Differential(d) }

// NewConstrainedPolicy creates a policy with publicly known constraints.
func NewConstrainedPolicy(g SecretGraph, q *ConstraintSet) *Policy {
	return policy.NewConstrained(g, q)
}

// NewMarginal declares a marginal over the given attribute indexes.
func NewMarginal(d *Domain, attrs []int) (*Marginal, error) {
	return constraints.NewMarginal(d, attrs)
}

// ConstraintsFromDataset materializes count query constraints with answers
// evaluated on ds (the "publicly released statistics" scenario).
func ConstraintsFromDataset(queries []CountQuery, ds *Dataset) (*ConstraintSet, error) {
	return constraints.FromDataset(queries, ds)
}

// The free release functions below are one-shot sessions: each creates a
// Session with budget eps over src, makes its one release, and discards
// the session. They compile the policy and index the dataset on every
// call; callers that release repeatedly should hold a Session or a
// CompiledPolicy instead.

// ReleaseHistogram releases the complete histogram with noise calibrated
// to the policy-specific sensitivity: Theorem 5.1 for unconstrained
// policies, the Theorem 8.2 policy-graph bound for constrained ones.
func ReleaseHistogram(p *Policy, ds *Dataset, eps float64, src *Source) ([]float64, error) {
	s, err := NewSession(p, eps, src)
	if err != nil {
		return nil, err
	}
	return s.ReleaseHistogram(ds, eps)
}

// ConsistentWithConstraints projects a released histogram onto the policy's
// public constraints (exact agreement, never increases error, costs no
// budget).
func ConsistentWithConstraints(p *Policy, released []float64) ([]float64, error) {
	set, ok := p.Constraints().(*constraints.Set)
	if !ok {
		return nil, errors.New("blowfish: policy has no count constraints")
	}
	return constraints.ConsistentWithConstraints(set, released)
}

// ReleasePartitionHistogram releases the histogram over the blocks of part;
// it is exact when every secret pair stays within a block.
func ReleasePartitionHistogram(p *Policy, ds *Dataset, part Partition, eps float64, src *Source) ([]float64, error) {
	s, err := NewSession(p, eps, src)
	if err != nil {
		return nil, err
	}
	return s.ReleasePartitionHistogram(ds, part, eps)
}

// HistogramSensitivity returns S(h, P) for the policy: the Section 5 value
// for unconstrained policies, the Theorem 8.2 / Corollary 8.3 bound for
// count-constrained ones.
func HistogramSensitivity(p *Policy) (float64, error) { return engine.HistogramSensitivity(p) }

// KMeans runs non-private Lloyd clustering (the Figure 1 baseline).
//
//lint:allow budgetcharge non-private baseline: the source only seeds centroid initialization deterministically; nothing released claims a privacy guarantee, so there is no ε to charge
func KMeans(ds *Dataset, k, iterations int, src *Source) (KMeansResult, error) {
	lo, hi := engine.KMeansBox(ds.Domain())
	return kmeans.Lloyd(ds.Vectors(), kmeans.Config{K: k, Iterations: iterations, Lo: lo, Hi: hi}, src)
}

// PrivateKMeans runs SuLQ k-means satisfying (ε, P)-Blowfish privacy: the
// qsize and qsum sensitivities come from the policy (Lemma 6.1), the
// clamping box from the domain.
func PrivateKMeans(p *Policy, ds *Dataset, k, iterations int, eps float64, src *Source) (KMeansResult, error) {
	s, err := NewSession(p, eps, src)
	if err != nil {
		return KMeansResult{}, err
	}
	return s.PrivateKMeans(ds, k, iterations, eps)
}

// CumulativeRelease is a released cumulative histogram: Raw holds the noisy
// counts, Inferred the constrained-inference estimate (monotone, in [0,n]).
type CumulativeRelease struct {
	Raw      []float64
	Inferred []float64
}

// Range answers q[lo, hi] from the inferred cumulative histogram.
func (c *CumulativeRelease) Range(lo, hi int) (float64, error) {
	return ordered.RangeFromCumulative(c.Inferred, lo, hi)
}

// ReleaseCumulativeHistogram runs the Ordered Mechanism (Section 7.1): it
// noises every cumulative count with the policy-specific sensitivity (1
// under the line graph, θ under G^{d,θ}, |T|−1 under differential privacy)
// and applies constrained inference.
func ReleaseCumulativeHistogram(p *Policy, ds *Dataset, eps float64, src *Source) (*CumulativeRelease, error) {
	s, err := NewSession(p, eps, src)
	if err != nil {
		return nil, err
	}
	return s.ReleaseCumulativeHistogram(ds, eps)
}

// RangeQuery is one inclusive range count q[Lo, Hi], as
// Session.ReleaseRangeAnswers and range-kind stream epochs answer it.
type RangeQuery = ordered.RangeQuery

// RangeReleaser answers arbitrary range queries over an ordered domain via
// the Ordered Hierarchical Mechanism (Section 7.2), with θ taken from the
// policy's distance-threshold graph (|T| for differential privacy, 1 for
// the line graph) and the privacy budget split per Eq. (15).
type RangeReleaser struct {
	release *ordered.OHRelease
}

// NewRangeReleaser builds and releases the Ordered Hierarchical structure
// for the dataset under the policy.
func NewRangeReleaser(p *Policy, ds *Dataset, fanout int, eps float64, src *Source) (*RangeReleaser, error) {
	s, err := NewSession(p, eps, src)
	if err != nil {
		return nil, err
	}
	return s.NewRangeReleaser(ds, fanout, eps)
}

// Range answers the range count query q[lo, hi] (inclusive bounds).
func (r *RangeReleaser) Range(lo, hi int) (float64, error) { return r.release.Range(lo, hi) }

// Cumulative answers the cumulative count C(j) = #values ≤ j.
func (r *RangeReleaser) Cumulative(j int) (float64, error) { return r.release.Cumulative(j) }

// IsotonicRegression exposes the constrained-inference primitive: the L2
// projection onto non-decreasing sequences.
func IsotonicRegression(y []float64) []float64 { return infer.IsotonicRegression(y) }

// LInfDistanceThreshold returns the metric specification S^{d,θ} under the
// L∞ (Chebyshev) metric: square neighborhoods on grids where
// DistanceThreshold protects L1 diamonds.
func LInfDistanceThreshold(d *Domain, theta float64) (SecretGraph, error) {
	return secgraph.NewLInfThreshold(d, theta)
}

// WithUnknownPresence wraps a secret graph over a one-dimensional ordered
// domain with the ⊥ ("individual absent") extension sketched in Section
// 3.1: presence itself becomes a secret. The returned graph lives over the
// extended domain (size |T|+1, ⊥ last); datasets must be built over
// ExtendedDomain(g).
func WithUnknownPresence(g SecretGraph) (SecretGraph, error) {
	return secgraph.NewWithBottom(g)
}

// ExtendedDomain returns the ⊥-extended domain of a graph constructed by
// WithUnknownPresence, and the ⊥ point.
func ExtendedDomain(g SecretGraph) (*Domain, Point, error) {
	b, ok := g.(*secgraph.BottomGraph)
	if !ok {
		return nil, 0, errors.New("blowfish: graph was not built by WithUnknownPresence")
	}
	return b.Domain(), b.Bottom(), nil
}

// ErrBudgetExceeded is returned when a release would exceed the privacy
// budget of an Accountant or Session.
var ErrBudgetExceeded = composition.ErrBudgetExceeded

// ErrDomainMismatch is returned when a dataset (or partition) is defined
// over a different domain than the policy it is used with. Callers that
// serve untrusted requests can detect it with errors.Is and report a
// structured "domain mismatch" failure instead of a generic error.
var ErrDomainMismatch = domain.ErrDomainMismatch

// CompiledPolicy is a policy compiled once into the release engine's plan:
// every query sensitivity, the partition block index and the range-release
// tree layout are precomputed, and dataset indexes are shared across every
// session created from it. Compile once per policy and mint sessions from
// the result when many sessions serve the same policy (the HTTP server
// does); a CompiledPolicy is safe for concurrent use.
type CompiledPolicy struct {
	pol  *Policy
	plan *engine.Plan
}

// Compile precomputes the release plan for a policy, constrained or not.
func Compile(pol *Policy) (*CompiledPolicy, error) {
	if pol == nil {
		return nil, errors.New("blowfish: nil policy")
	}
	plan, err := engine.Compile(pol)
	if err != nil {
		return nil, err
	}
	return &CompiledPolicy{pol: pol, plan: plan}, nil
}

// HistogramSensitivity returns S(h, P) from the compiled plan's cache, so
// callers that need the value at registration time do not pay the graph
// scan twice.
func (cp *CompiledPolicy) HistogramSensitivity() (float64, error) {
	return cp.plan.HistogramSensitivity()
}

// ExplicitStats reports the compiled edge and connected-component counts
// when the policy's secret graph is explicit; ok is false for implicit
// kinds.
func (cp *CompiledPolicy) ExplicitStats() (edges, components int, ok bool) {
	return cp.plan.ExplicitStats()
}

// NewSession creates a session over the compiled plan with a total ε budget
// drawing all noise from src.
func (cp *CompiledPolicy) NewSession(budget float64, src *Source) (*Session, error) {
	return newSession(cp.pol, cp.plan, budget, src, nil)
}

// NewKeyedSession creates a session over the compiled plan whose release
// with ordinal n draws noise from the generator derived from (key, n), so
// concurrent releases draw in parallel. Sessions sharing a key share noise.
func (cp *CompiledPolicy) NewKeyedSession(budget float64, key NoiseKey) (*Session, error) {
	return newSession(cp.pol, cp.plan, budget, nil, &key)
}

// Forget drops the compiled plan's cached index for ds, releasing its
// memory. Call it when a dataset is deleted while the policy lives on.
func (cp *CompiledPolicy) Forget(ds *Dataset) { cp.plan.Forget(ds) }
