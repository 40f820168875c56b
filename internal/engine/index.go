package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"blowfish/internal/domain"
)

// DatasetIndex materializes the count vectors a plan's releases read — the
// flat histogram and the per-block counts of the registered partition — and
// maintains them incrementally as tuples are added, changed or removed, so a
// mutation costs O(1) and a release costs O(|T|) snapshotting instead of an
// O(n) rescan of the tuples. Cumulative counts are summed from the
// histogram when read, in the same O(|T|) pass as the copy.
//
// Mutations must go through the index (ApplyBatch) to stay incremental;
// direct mutations of the underlying Dataset are detected via its
// generation counter and trigger a full O(n) rebuild on the next read, so
// results are never stale either way. A DatasetIndex is safe for
// concurrent use, but the index's lock only covers its own caches — the
// Dataset underneath is unsynchronized. While any operation is in flight,
// the Dataset must not be mutated through any other path: not directly,
// and not through a different plan's index over the same Dataset (quiesce
// mutations externally when several plans index one dataset).
type DatasetIndex struct {
	plan *Plan
	ds   *domain.Dataset

	mu    sync.RWMutex
	built bool
	gen   uint64 // dataset generation the caches reflect
	// hist is the flat histogram h(D); nil over non-materializable domains.
	hist []float64
	// blocks is the histogram over the registered partition's blocks; nil
	// when the plan has no partition.
	blocks []float64
	// vecs caches the k-means coordinate vectors; invalidated on mutation.
	vecs [][]float64
}

func newDatasetIndex(p *Plan, ds *domain.Dataset) *DatasetIndex {
	return &DatasetIndex{plan: p, ds: ds}
}

// materializable reports whether per-value vectors exist for the domain.
func (x *DatasetIndex) materializable() bool {
	return x.ds.Domain().Size() <= domain.MaxMaterializedSize
}

// fresh reports whether the caches reflect the dataset, under either lock.
func (x *DatasetIndex) fresh() bool {
	return x.built && x.gen == x.ds.Generation()
}

// rebuildLocked recomputes every maintained vector from the tuples: the
// O(n) path taken once at first use or after a direct dataset mutation.
func (x *DatasetIndex) rebuildLocked() {
	d := x.ds.Domain()
	pts := x.ds.PointsUnsafe()
	if x.materializable() {
		if x.hist == nil || len(x.hist) != int(d.Size()) {
			x.hist = make([]float64, d.Size())
		} else {
			clear(x.hist)
		}
		for _, p := range pts {
			x.hist[p]++
		}
	}
	if x.plan.part != nil {
		if x.blocks == nil {
			x.blocks = make([]float64, x.plan.part.NumBlocks())
		} else {
			clear(x.blocks)
		}
		for _, p := range pts {
			x.blocks[x.plan.blockIndex(p)]++
		}
	}
	x.vecs = nil
	x.built = true
	x.gen = x.ds.Generation()
}

// ensureLocked rebuilds under the write lock when the caches are stale.
func (x *DatasetIndex) ensureLocked() {
	if !x.fresh() {
		x.rebuildLocked()
	}
}

// MutOp selects the kind of a batched Mutation.
type MutOp uint8

const (
	// MutAdd appends a tuple with value P.
	MutAdd MutOp = iota
	// MutSet replaces the value of tuple Index with P.
	MutSet
	// MutRemove deletes tuple Index (Dataset.Remove swap semantics).
	MutRemove
)

// Mutation is one element of an ApplyBatch call.
type Mutation struct {
	Op    MutOp
	Index int
	P     domain.Point
}

// ApplyBatch applies a sequence of mutations under a single lock
// acquisition, maintaining every count vector incrementally — the
// lock-amortized ingestion path used by internal/stream, where taking the
// index lock per tuple would dominate sustained event throughput.
//
// Mutations apply in order. On the first failing mutation (an out-of-range
// index or point) ApplyBatch stops and returns the number applied so far
// together with the error; the prior mutations remain applied and the
// caches stay consistent with the dataset.
func (x *DatasetIndex) ApplyBatch(muts []Mutation) (applied int, err error) {
	if len(muts) == 0 {
		return 0, nil
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.ensureLocked()
	defer func() { x.gen = x.ds.Generation() }()
	for i, m := range muts {
		switch m.Op {
		case MutAdd:
			if err := x.ds.Add(m.P); err != nil {
				return i, err
			}
			x.applyInsertLocked(m.P)
		case MutSet:
			if m.Index < 0 || m.Index >= x.ds.Len() {
				return i, x.ds.Set(m.Index, m.P)
			}
			old := x.ds.At(m.Index)
			if err := x.ds.Set(m.Index, m.P); err != nil {
				return i, err
			}
			x.applyRemoveLocked(old)
			x.applyInsertLocked(m.P)
		case MutRemove:
			if m.Index < 0 || m.Index >= x.ds.Len() {
				return i, x.ds.Remove(m.Index)
			}
			old := x.ds.At(m.Index)
			if err := x.ds.Remove(m.Index); err != nil {
				return i, err
			}
			x.applyRemoveLocked(old)
		default:
			return i, fmt.Errorf("engine: unknown mutation op %d", m.Op)
		}
	}
	return len(muts), nil
}

func (x *DatasetIndex) applyInsertLocked(p domain.Point) {
	if x.hist != nil {
		x.hist[p]++
	}
	if x.blocks != nil {
		x.blocks[x.plan.blockIndex(p)]++
	}
	x.vecs = nil
}

func (x *DatasetIndex) applyRemoveLocked(p domain.Point) {
	if x.hist != nil {
		x.hist[p]--
	}
	if x.blocks != nil {
		x.blocks[x.plan.blockIndex(p)]--
	}
	x.vecs = nil
}

// Histogram returns a private copy of the flat histogram h(D). The copy is
// the caller's to noise in place.
func (x *DatasetIndex) Histogram() ([]float64, error) {
	return x.HistogramAppend(nil)
}

// HistogramAppend appends the flat histogram h(D) to dst and returns the
// extended slice — the recycling variant of Histogram for callers feeding a
// release from a pooled scratch vector (pass dst[:0] to reuse its capacity).
func (x *DatasetIndex) HistogramAppend(dst []float64) ([]float64, error) {
	if !x.materializable() {
		return nil, domain.ErrDomainTooLarge
	}
	x.mu.RLock()
	if x.fresh() {
		out := append(dst, x.hist...)
		x.mu.RUnlock()
		return out, nil
	}
	x.mu.RUnlock()
	x.mu.Lock()
	defer x.mu.Unlock()
	x.ensureLocked()
	return append(dst, x.hist...), nil
}

// CumulativeAppend appends the cumulative counts S_T(D) over a
// one-dimensional ordered domain to dst and returns them together with the
// cardinality n they sum to, taken under a single lock acquisition so a
// concurrent mutation can never make the pair inconsistent (the Ordered
// Mechanism clamps its inference into [0, n]). Callers feeding a release
// from a pooled scratch vector pass dst[:0] to reuse its capacity. The
// prefix sums are formed from the histogram as they are appended; counts
// are integers below 2^53, so the float64 sums are exact.
func (x *DatasetIndex) CumulativeAppend(dst []float64) ([]float64, int, error) {
	if x.ds.Domain().NumAttrs() != 1 {
		return nil, 0, errors.New("domain: cumulative histogram requires a one-dimensional ordered domain")
	}
	if !x.materializable() {
		return nil, 0, domain.ErrDomainTooLarge
	}
	x.mu.RLock()
	if x.fresh() {
		out := appendPrefixSums(dst, x.hist)
		n := x.ds.Len()
		x.mu.RUnlock()
		return out, n, nil
	}
	x.mu.RUnlock()
	x.mu.Lock()
	defer x.mu.Unlock()
	x.ensureLocked()
	return appendPrefixSums(dst, x.hist), x.ds.Len(), nil
}

// appendPrefixSums appends the running sums of hist to dst, growing it
// at most once.
func appendPrefixSums(dst, hist []float64) []float64 {
	dst = slices.Grow(dst, len(hist))
	run := 0.0
	for _, c := range hist {
		run += c
		dst = append(dst, run)
	}
	return dst
}

// BlockCounts returns a private copy of the histogram over the registered
// partition's blocks.
func (x *DatasetIndex) BlockCounts() ([]float64, error) {
	if x.plan.part == nil {
		return nil, errors.New("engine: plan has no registered partition")
	}
	x.mu.RLock()
	if x.fresh() {
		out := append([]float64(nil), x.blocks...)
		x.mu.RUnlock()
		return out, nil
	}
	x.mu.RUnlock()
	x.mu.Lock()
	defer x.mu.Unlock()
	x.ensureLocked()
	return append([]float64(nil), x.blocks...), nil
}

// PartitionHistogram answers the block histogram for an arbitrary partition
// by scanning the tuples — the fallback for partitions other than the
// plan's registered one.
func (x *DatasetIndex) PartitionHistogram(part domain.Partition) ([]float64, error) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.ds.PartitionHistogram(part)
}

// Vectors returns the dataset decoded as k-means coordinate vectors, cached
// until the next mutation. Callers must treat the rows as read-only (the
// k-means implementations do).
func (x *DatasetIndex) Vectors() [][]float64 {
	x.mu.RLock()
	if x.fresh() && x.vecs != nil {
		v := x.vecs
		x.mu.RUnlock()
		return v
	}
	x.mu.RUnlock()
	x.mu.Lock()
	defer x.mu.Unlock()
	x.ensureLocked()
	if x.vecs == nil {
		x.vecs = x.ds.Vectors()
	}
	return x.vecs
}
