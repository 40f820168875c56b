// Package engine is the compiled release engine: it turns a (policy,
// dataset) pair into reusable artifacts so the hot release path never
// recomputes what the policy structure already determines.
//
// The paper's central observation (Eq. 9, Lemma 6.1) is that the secret
// graph G fixes every query sensitivity once per policy, not once per
// query; "Design of Policy-Aware Differentially Private Algorithms" (Haney
// et al.) treats that compilation as a reusable artifact. The engine makes
// the same move operationally, in three layers:
//
//   - Plan compiles a policy once: histogram, cumulative, partition and
//     k-means sensitivities, the partition block index, and the Ordered
//     Hierarchical tree layout are cached at compile time, so no release
//     ever calls a *Sensitivity() method or rebuilds a tree.
//   - DatasetIndex materializes the flat histogram, per-block counts and
//     cumulative counts of a dataset and maintains them incrementally under
//     batched mutations, replacing the O(n) tuple rescan per release with
//     O(1)–O(|T|) cache maintenance.
//   - Engine serves releases from the compiled forms. A keyed engine
//     derives each release's noise from its key and the release's ordinal,
//     so parallel releases draw noise without sharing a stream; budget
//     charges remain atomic through the shared composition.Accountant.
//
// Constrained policies compile too: Q is as fixed as G, so their histogram
// sensitivity (the Section 8 policy-graph bound) is compiled like the
// Section 5 values, and the release kinds the paper defines only for
// unconstrained policies record their refusal at compile time.
//
// A sequential engine draws from the caller's source exactly as the
// pre-engine per-release functions did, so releases are bit-for-bit
// identical to them given the same seed (the equivalence tests at the
// repository root pin this against goldens captured from those functions,
// for every policy kind the server supports and for constrained policies).
package engine

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"

	"blowfish/internal/constraints"
	"blowfish/internal/domain"
	"blowfish/internal/ordered"
	"blowfish/internal/policy"
	"blowfish/internal/secgraph"
)

// maxBlockTableSize caps the size of the point→block lookup table a Plan
// materializes for its registered partition. Above this the engine falls
// back to Partition.Block arithmetic, which is only a few divisions.
const maxBlockTableSize = 1 << 22

// Cache bounds: both plan-level caches are keyed by caller-supplied
// pointers, so without a cap a caller minting fresh partitions per call —
// or a dataset deletion racing an in-flight release that re-creates a
// just-Forgotten index — would grow them for the plan's lifetime. When
// full, an arbitrary entry is evicted; evicted state is rebuilt on next
// use, so the caps only bound memory, never change results.
const (
	maxCachedIndexes     = 1024
	maxCachedForeignSens = 256
)

// evictOne removes an arbitrary entry from a full cache map.
func evictOne[K comparable, V any](m map[K]V) {
	for k := range m {
		delete(m, k)
		return
	}
}

// Plan is a compiled policy: every sensitivity and layout the release
// mechanisms need, computed once. Plans are immutable after Compile apart
// from internal caches and are safe for concurrent use by any number of
// engines.
type Plan struct {
	pol *policy.Policy
	dom *domain.Domain

	histSens float64
	histErr  error

	cumSens float64
	cumErr  error

	sumSens float64 // k-means qsum sensitivity (Lemma 6.1)
	kmErr   error

	// part is the policy's own partition (for partitioned secret graphs);
	// partSens is S(h_B, P) for it. blockOf is the point→block table,
	// built lazily on first dataset indexing (blockOnce) so registering a
	// partition policy that never serves a release costs no table memory.
	part      domain.Partition
	partSens  float64
	blockOnce sync.Once
	blockOf   []int32

	// theta is the Ordered Hierarchical block width the policy's graph
	// dictates; rangeErr records why range releases are unavailable.
	theta    int
	rangeErr error

	// explicit holds the edge and connected-component counts of an explicit
	// (adjacency-list) secret graph, which policy responses report. Nil for
	// implicit graph kinds.
	explicit *explicitPlan

	// mu guards the caches below. Read paths (every release) take the read
	// lock; expensive construction (OH tree builds) happens outside the
	// lock entirely so a first-use build never stalls concurrent releases.
	mu sync.RWMutex
	// oh caches the Ordered Hierarchical layout per fanout: tree
	// construction would otherwise dominate every range release. Wider
	// fanouts than the block width are not keyed here (see OHFor).
	oh map[int]*ordered.OH
	// foreignPartSens caches S(h_B, P) for partitions other than the
	// policy's own (Session.ReleasePartitionHistogram accepts any).
	foreignPartSens map[domain.Partition]float64
	// indexes caches one DatasetIndex per dataset so every session over
	// this plan shares the incremental counts. Entries live until Forget.
	indexes map[*domain.Dataset]*DatasetIndex

	// vecs is the plan's buffer arena: it pools the O(|T|) scratch vectors
	// a release stages its truth in (range-release histogram counts,
	// cumulative prefix arrays) and hands back before returning. Only
	// buffers that never escape a release go through the arena — vectors
	// the caller keeps are carved fresh — so reuse can never alias a
	// published release.
	vecs sync.Pool
}

// Compile builds the plan for a policy. Sensitivities that do not apply to
// the policy (cumulative counts over multi-attribute domains, range
// releases for unsupported graphs, every kind but the histogram for a
// constrained policy) record their error and surface it at release time.
func Compile(pol *policy.Policy) (*Plan, error) {
	if pol == nil {
		return nil, errors.New("engine: nil policy")
	}
	p := &Plan{
		pol:             pol,
		dom:             pol.Domain(),
		oh:              make(map[int]*ordered.OH),
		foreignPartSens: make(map[domain.Partition]float64),
		indexes:         make(map[*domain.Dataset]*DatasetIndex),
	}
	p.vecs.New = func() any { return new([]float64) }
	p.histSens, p.histErr = HistogramSensitivity(pol)
	p.cumSens, p.cumErr = pol.CumulativeHistogramSensitivity()
	p.sumSens, p.kmErr = pol.SumSensitivity()
	p.compilePartition()
	p.compileRange()
	p.compileExplicit()
	return p, nil
}

// HistogramSensitivity returns S(h, P): the Section 5 value for an
// unconstrained policy; for a count-constrained one, the Theorem 8.2
// policy-graph bound, or the Corollary 8.3 bound when Q is not sparse.
func HistogramSensitivity(pol *policy.Policy) (float64, error) {
	if pol.Unconstrained() {
		return pol.HistogramSensitivity()
	}
	set, ok := pol.Constraints().(*constraints.Set)
	if !ok {
		return 0, errors.New("blowfish: unsupported constraint set type")
	}
	sens, _, err := constraints.HistogramSensitivity(set, pol.Graph())
	return sens, err
}

// explicitPlan is the compiled form of an explicit secret graph: its edge
// and connected-component counts. Releases read only the sensitivities and
// θ the graph fixes, so nothing per vertex pair is kept.
type explicitPlan struct {
	edges, components int
}

// compileExplicit records the edge and component counts of an explicit
// secret graph.
func (p *Plan) compileExplicit() {
	g, ok := p.pol.Graph().(*secgraph.Explicit)
	if !ok {
		return
	}
	p.explicit = &explicitPlan{edges: g.NumEdges(), components: g.Components()}
}

// compilePartition precomputes the sensitivity for the policy's own
// partition, when the secret graph is partitioned.
func (p *Plan) compilePartition() {
	g, ok := p.pol.Graph().(*secgraph.PartitionGraph)
	if !ok {
		return
	}
	p.part = g.Partition()
	sens, err := p.pol.PartitionHistogramSensitivity(p.part)
	if err != nil {
		p.part = nil
		return
	}
	p.partSens = sens
}

// blockTable returns the point→block lookup table for the registered
// partition, building it once on first use (nil for large domains, where
// Partition.Block arithmetic is used instead).
func (p *Plan) blockTable() []int32 {
	p.blockOnce.Do(func() {
		if p.part == nil || p.dom.Size() > maxBlockTableSize {
			return
		}
		table := make([]int32, p.dom.Size())
		for i := range table {
			table[i] = int32(p.part.Block(domain.Point(i)))
		}
		p.blockOf = table
	})
	return p.blockOf
}

// RangeTheta derives the Ordered Hierarchical block width θ that a
// policy's graph dictates for range releases. It is the single home of the
// graph-kind switch and of its error texts, which are part of the facade's
// documented behavior.
func RangeTheta(pol *policy.Policy) (int, error) {
	if pol.Domain().NumAttrs() != 1 {
		return 0, errors.New("blowfish: range release requires a one-dimensional ordered domain")
	}
	if !pol.Unconstrained() {
		return 0, errors.New("blowfish: range release supports unconstrained policies only")
	}
	size := int(pol.Domain().Size())
	switch g := pol.Graph().(type) {
	case *secgraph.DistanceThreshold:
		theta := int(math.Floor(g.Theta()))
		if theta < 1 {
			theta = 1
		}
		return theta, nil
	case *secgraph.Complete:
		return size, nil
	case *secgraph.Explicit:
		// An explicit graph's edges all span at most its longest edge L, so
		// the graph is a subgraph of S^{d,ceil(L)} — it declares no secret
		// pair that threshold graph does not. Calibrating the Ordered
		// Hierarchical release for θ = ceil(L) therefore protects every
		// explicit secret pair (a subgraph only removes constraints, never
		// adds them); for sparser graphs the noise is conservative, exactly
		// as S^{d,θ} is conservative for its own non-edges within θ.
		theta := int(math.Ceil(g.MaxEdgeDistance()))
		if theta < 1 {
			theta = 1 // edgeless graphs: any positive block width works
		}
		if theta > size {
			theta = size
		}
		return theta, nil
	default:
		return 0, fmt.Errorf("blowfish: range release requires a distance-threshold, full-domain or explicit policy, got %s", g.Name())
	}
}

// compileRange caches the RangeTheta derivation for the plan.
func (p *Plan) compileRange() {
	p.theta, p.rangeErr = RangeTheta(p.pol)
}

// Domain returns the policy's domain T.
func (p *Plan) Domain() *domain.Domain { return p.dom }

// HistogramSensitivity returns the cached S(h, P).
func (p *Plan) HistogramSensitivity() (float64, error) { return p.histSens, p.histErr }

// CumulativeSensitivity returns the cached S(S_T, P).
func (p *Plan) CumulativeSensitivity() (float64, error) { return p.cumSens, p.cumErr }

// KMeansSensitivities returns the cached (qsize, qsum) sensitivities of
// private k-means (Lemma 6.1).
func (p *Plan) KMeansSensitivities() (sizeSens, sumSens float64, err error) {
	if p.kmErr != nil {
		return 0, 0, p.kmErr
	}
	if p.histErr != nil {
		return 0, 0, p.histErr
	}
	return p.histSens, p.sumSens, nil
}

// ExplicitStats reports the compiled edge and connected-component counts of
// an explicit secret graph; ok is false for implicit graph kinds.
func (p *Plan) ExplicitStats() (edges, components int, ok bool) {
	if p.explicit == nil {
		return 0, 0, false
	}
	return p.explicit.edges, p.explicit.components, true
}

// Partition returns the policy's own partition, or nil when the secret
// graph is not partitioned.
func (p *Plan) Partition() domain.Partition { return p.part }

// PartitionSensitivity returns S(h_B, P) for part, cached: the policy's own
// partition hits the compile-time value, any other partition is computed
// once and memoized (the computation scans the domain for refinement).
// Partitions of uncomparable dynamic type cannot be map keys and skip the
// cache — they recompute per call.
func (p *Plan) PartitionSensitivity(part domain.Partition) (float64, error) {
	if part == nil {
		return 0, errors.New("engine: nil partition")
	}
	if p.isRegistered(part) {
		return p.partSens, nil
	}
	cacheable := reflect.TypeOf(part).Comparable()
	if cacheable {
		p.mu.RLock()
		sens, ok := p.foreignPartSens[part]
		p.mu.RUnlock()
		if ok {
			return sens, nil
		}
	}
	sens, err := p.pol.PartitionHistogramSensitivity(part)
	if err != nil {
		return 0, err
	}
	if cacheable {
		p.mu.Lock()
		if len(p.foreignPartSens) >= maxCachedForeignSens {
			evictOne(p.foreignPartSens)
		}
		p.foreignPartSens[part] = sens
		p.mu.Unlock()
	}
	return sens, nil
}

// blockIndex returns the block of pt under the registered partition via the
// compiled table when available.
func (p *Plan) blockIndex(pt domain.Point) int {
	if table := p.blockTable(); table != nil {
		return int(table[pt])
	}
	return p.part.Block(pt)
}

// isRegistered reports whether part is the plan's own partition. Interface
// equality panics when both sides hold the same uncomparable dynamic type,
// so the comparison is guarded: uncomparable partitions are simply never
// treated as registered (they take the slower generic path).
func (p *Plan) isRegistered(part domain.Partition) bool {
	if p.part == nil || part == nil {
		return false
	}
	if !reflect.TypeOf(part).Comparable() {
		return false
	}
	return part == p.part
}

// OHFor returns the Ordered Hierarchical layout for the given fanout,
// building it on first use and serving the cached trees afterwards. The
// layout is immutable and shared safely across concurrent releases. The
// O(|T|) tree build runs outside the plan lock so a first-use build never
// stalls concurrent releases; two racing first uses may both build, and
// the loser's tree is discarded.
//
// Every fanout at or above the block width min(θ, |T|) builds the same
// trees, and only Eq. 14's split reads the fanout: a wider fanout shares
// the block-width layout's trees, so the policy bounds the cache, not the
// fanouts clients send.
func (p *Plan) OHFor(fanout int) (*ordered.OH, error) {
	if p.rangeErr != nil {
		return nil, p.rangeErr
	}
	width := max(min(p.theta, int(p.dom.Size())), 2)
	if fanout > width {
		oh, err := p.OHFor(width)
		if err != nil {
			return nil, err
		}
		return oh.WithFanout(fanout), nil
	}
	p.mu.RLock()
	oh, ok := p.oh[fanout]
	p.mu.RUnlock()
	if ok {
		return oh, nil
	}
	built, err := ordered.NewOH(int(p.dom.Size()), p.theta, fanout)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if oh, ok := p.oh[fanout]; ok {
		return oh, nil
	}
	p.oh[fanout] = built
	return built, nil
}

// Index returns the shared DatasetIndex for ds, building it on first use.
// It fails with domain.ErrDomainMismatch when ds lives over a different
// domain than the policy. The index is cached for the plan's lifetime;
// Forget releases it.
func (p *Plan) Index(ds *domain.Dataset) (*DatasetIndex, error) {
	if ds == nil {
		return nil, errors.New("engine: nil dataset")
	}
	if !p.dom.Equal(ds.Domain()) {
		return nil, domain.ErrDomainMismatch
	}
	p.mu.RLock()
	idx, ok := p.indexes[ds]
	p.mu.RUnlock()
	if ok {
		return idx, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if idx, ok := p.indexes[ds]; ok {
		return idx, nil
	}
	if len(p.indexes) >= maxCachedIndexes {
		evictOne(p.indexes)
	}
	idx = newDatasetIndex(p, ds)
	p.indexes[ds] = idx
	return idx, nil
}

// Forget drops the cached index for ds, releasing its memory. Servers call
// it when a dataset is deleted.
func (p *Plan) Forget(ds *domain.Dataset) {
	p.mu.Lock()
	delete(p.indexes, ds)
	p.mu.Unlock()
}

// getVec leases a scratch vector from the plan's buffer arena. The lease is
// a pointer so returning it to the pool stays allocation-free; callers
// append into (*v)[:0], store the grown slice back through the pointer, and
// putVec it before returning.
func (p *Plan) getVec() *[]float64 { return p.vecs.Get().(*[]float64) }

// putVec returns a leased scratch vector to the arena. The buffer must not
// be referenced by anything that outlives the release that leased it.
func (p *Plan) putVec(v *[]float64) { p.vecs.Put(v) }
