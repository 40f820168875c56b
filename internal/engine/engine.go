package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"blowfish/internal/composition"
	"blowfish/internal/domain"
	"blowfish/internal/kmeans"
	"blowfish/internal/mechanism"
	"blowfish/internal/noise"
	"blowfish/internal/ordered"
)

// noiseShard is one independently seeded noise stream with its own lock, so
// concurrent releases draw noise in parallel instead of serializing on a
// single source mutex.
type noiseShard struct {
	mu  sync.Mutex
	src *noise.Source
}

// Engine serves releases from a compiled Plan: truth vectors come from
// DatasetIndexes, noise from a shard pool, and every charge goes through
// one atomic Accountant, so parallel releases from many goroutines never
// overspend and never contend on a single noise stream.
//
// Releases are computed first and charged second, exactly like Session: a
// failed charge discards the computed values unpublished.
type Engine struct {
	plan    *Plan
	acct    *composition.Accountant
	shards  []*noiseShard
	ctr     atomic.Uint64
	metrics atomic.Pointer[Metrics]
}

// New creates an engine over a compiled plan. src seeds the shard pool:
// with shards <= 1 the engine draws directly from src, so a sequence of
// releases consumes src's stream in order, as callers sharing one source
// expect; with shards = n the pool holds src plus n−1 Split substreams and
// releases rotate across them.
func New(plan *Plan, acct *composition.Accountant, src *noise.Source, shards int) (*Engine, error) {
	if plan == nil {
		return nil, errors.New("engine: nil plan")
	}
	if acct == nil {
		return nil, errors.New("engine: nil accountant")
	}
	if src == nil {
		return nil, errors.New("engine: nil noise source")
	}
	if shards < 1 {
		shards = 1
	}
	e := &Engine{plan: plan, acct: acct, shards: make([]*noiseShard, shards)}
	e.shards[0] = &noiseShard{src: src}
	for i := 1; i < shards; i++ {
		e.shards[i] = &noiseShard{src: src.Split(fmt.Sprintf("engine-shard-%d", i))}
	}
	return e, nil
}

// Plan returns the compiled policy plan.
func (e *Engine) Plan() *Plan { return e.plan }

// Accountant returns the budget ledger shared by every release.
func (e *Engine) Accountant() *composition.Accountant { return e.acct }

// Shards returns the size of the noise pool.
func (e *Engine) Shards() int { return len(e.shards) }

// Index returns the shared dataset index for ds (see Plan.Index).
func (e *Engine) Index(ds *domain.Dataset) (*DatasetIndex, error) { return e.plan.Index(ds) }

// NoiseState is a serializable snapshot of the engine's noise pool: the
// rotation counter plus every shard's marshaled generator state. Restoring
// it resumes each noise stream bit-for-bit where the snapshot left off, so
// a recovered server's future releases draw exactly the noise the pre-crash
// server would have drawn.
type NoiseState struct {
	Ctr    uint64   `json:"ctr"`
	Shards [][]byte `json:"shards"`
}

// ExportNoise captures the noise pool's state. Each shard is locked for the
// marshal, so the capture of one shard is atomic against concurrent draws;
// callers that need the pool as a whole to be quiescent (checkpointing)
// must serialize releases externally.
func (e *Engine) ExportNoise() (NoiseState, error) {
	st := NoiseState{Ctr: e.ctr.Load(), Shards: make([][]byte, len(e.shards))}
	for i, sh := range e.shards {
		sh.mu.Lock()
		b, err := sh.src.MarshalBinary()
		sh.mu.Unlock()
		if err != nil {
			return NoiseState{}, fmt.Errorf("engine: marshaling noise shard %d: %w", i, err)
		}
		st.Shards[i] = b
	}
	return st, nil
}

// RestoreNoise overwrites the noise pool with a state captured by
// ExportNoise. The shard count must match the engine's.
func (e *Engine) RestoreNoise(st NoiseState) error {
	if len(st.Shards) != len(e.shards) {
		return fmt.Errorf("engine: restoring %d noise shards onto an engine with %d", len(st.Shards), len(e.shards))
	}
	for i, sh := range e.shards {
		sh.mu.Lock()
		err := sh.src.UnmarshalBinary(st.Shards[i])
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("engine: restoring noise shard %d: %w", i, err)
		}
	}
	e.ctr.Store(st.Ctr)
	return nil
}

// noiseShard picks the next shard of the pool round-robin, so concurrent
// releases spread across independent streams. Callers lock the shard's
// mutex around their draws inline — a closure-based wrapper here would cost
// an allocation on every release of the hot paths.
func (e *Engine) noiseShard() *noiseShard {
	if m := e.metrics.Load(); m != nil && m.NoiseDraws != nil {
		m.NoiseDraws.Inc()
	}
	return e.shards[e.ctr.Add(1)%uint64(len(e.shards))]
}

// checkIndex guards against an index compiled for a different plan, whose
// block counts would belong to another partition.
func (e *Engine) checkIndex(idx *DatasetIndex) error {
	if idx == nil {
		return errors.New("engine: nil dataset index")
	}
	if idx.plan != e.plan {
		return errors.New("engine: dataset index belongs to a different plan")
	}
	return nil
}

// precheck cheaply refuses a charge that cannot possibly fit the remaining
// budget before any noise is computed. Invalid epsilons pass through so the
// mechanism's own validation reports them.
func (e *Engine) precheck(eps float64) error {
	if !(eps > 0) {
		return nil
	}
	return e.acct.CanSpend(eps)
}

// ReleaseHistogram releases the complete histogram with the plan's cached
// sensitivity, charging eps.
func (e *Engine) ReleaseHistogram(idx *DatasetIndex, eps float64) ([]float64, error) {
	if err := e.checkIndex(idx); err != nil {
		return nil, err
	}
	if err := e.precheck(eps); err != nil {
		return nil, err
	}
	mt, start := e.releaseStart()
	sens, err := e.plan.HistogramSensitivity()
	if err != nil {
		return nil, err
	}
	truth, err := idx.Histogram()
	if err != nil {
		return nil, err
	}
	sh := e.noiseShard()
	sh.mu.Lock()
	m, err := mechanism.NewLaplace(eps, sens, sh.src)
	if err == nil {
		m.ReleaseInPlace(truth)
	}
	sh.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := e.acct.Spend("histogram", eps); err != nil {
		return nil, err // release discarded unpublished
	}
	if mt != nil {
		mt.Histogram.observe(start)
	}
	return truth, nil
}

// ReleasePartitionHistogram releases the block histogram of part (nil means
// the plan's registered partition), charging eps only when the release is
// actually noisy: a zero-sensitivity release is exact and free. The
// registered partition reads the incrementally maintained block counts; any
// other partition falls back to a tuple scan.
func (e *Engine) ReleasePartitionHistogram(idx *DatasetIndex, part domain.Partition, eps float64) ([]float64, error) {
	if err := e.checkIndex(idx); err != nil {
		return nil, err
	}
	mt, start := e.releaseStart()
	registered := part == nil
	if registered {
		part = e.plan.part
	}
	sens, err := e.plan.PartitionSensitivity(part)
	if err != nil {
		return nil, err
	}
	if sens > 0 {
		if err := e.precheck(eps); err != nil {
			return nil, err
		}
	}
	var truth []float64
	if registered || e.plan.isRegistered(part) {
		truth, err = idx.BlockCounts()
	} else {
		truth, err = idx.PartitionHistogram(part)
	}
	if err != nil {
		return nil, err
	}
	if sens == 0 {
		// No secret pair crosses blocks: exact, free, no noise drawn.
		if mt != nil {
			mt.Partition.observe(start)
		}
		return truth, nil
	}
	sh := e.noiseShard()
	sh.mu.Lock()
	m, err := mechanism.NewLaplace(eps, sens, sh.src)
	if err == nil {
		m.ReleaseInPlace(truth)
	}
	sh.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := e.acct.Spend(fmt.Sprintf("partition-histogram|%d", part.NumBlocks()), eps); err != nil {
		return nil, err
	}
	if mt != nil {
		mt.Partition.observe(start)
	}
	return truth, nil
}

// ReleaseCumulative runs the Ordered Mechanism from the cumulative counts
// the index sums from its maintained histogram, charging eps. It returns
// the raw noisy counts and the constrained-inference estimate.
func (e *Engine) ReleaseCumulative(idx *DatasetIndex, eps float64) (raw, inferred []float64, err error) {
	if err := e.checkIndex(idx); err != nil {
		return nil, nil, err
	}
	if err := e.precheck(eps); err != nil {
		return nil, nil, err
	}
	m, start := e.releaseStart()
	sens, err := e.plan.CumulativeSensitivity()
	if err != nil {
		return nil, nil, err
	}
	// The cumulative prefix array is pure staging — ReleaseCumulative reads
	// it into a fresh noisy vector — so it comes from the plan's arena.
	buf := e.plan.getVec()
	cum, n, err := idx.CumulativeAppend((*buf)[:0])
	if err != nil {
		e.plan.putVec(buf)
		return nil, nil, err
	}
	sh := e.noiseShard()
	sh.mu.Lock()
	raw, err = ordered.ReleaseCumulative(cum, sens, eps, sh.src)
	sh.mu.Unlock()
	*buf = cum
	e.plan.putVec(buf)
	if err != nil {
		return nil, nil, err
	}
	inferred = ordered.InferCumulative(raw, float64(n))
	if err := e.acct.Spend("cumulative-histogram", eps); err != nil {
		return nil, nil, err
	}
	if m != nil {
		m.Cumulative.observe(start)
	}
	return raw, inferred, nil
}

// NewRangeRelease publishes the Ordered Hierarchical structure over the
// plan's cached tree layout, charging eps.
func (e *Engine) NewRangeRelease(idx *DatasetIndex, fanout int, eps float64) (*ordered.OHRelease, error) {
	if err := e.checkIndex(idx); err != nil {
		return nil, err
	}
	if err := e.precheck(eps); err != nil {
		return nil, err
	}
	m, start := e.releaseStart()
	oh, err := e.plan.OHFor(fanout)
	if err != nil {
		return nil, err
	}
	// The histogram is pure staging for the OH release — the released
	// structure carves its own storage — so it comes from the plan's arena.
	buf := e.plan.getVec()
	counts, err := idx.HistogramAppend((*buf)[:0])
	if err != nil {
		e.plan.putVec(buf)
		return nil, err
	}
	sh := e.noiseShard()
	sh.mu.Lock()
	rel, err := oh.Release(counts, eps, sh.src)
	sh.mu.Unlock()
	*buf = counts
	e.plan.putVec(buf)
	if err != nil {
		return nil, err
	}
	if err := e.acct.Spend("range-releaser", eps); err != nil {
		return nil, err
	}
	if m != nil {
		m.Range.observe(start)
	}
	return rel, nil
}

// KMeansBox returns the clamping box the domain dictates for k-means
// centroids: [0, |A_i|-1] per attribute. It is the single home of the
// derivation — private releases and the facade's non-private baseline
// both call it, so the two can never clamp differently.
func KMeansBox(d *domain.Domain) (lo, hi []float64) {
	lo = make([]float64, d.NumAttrs())
	hi = make([]float64, d.NumAttrs())
	for i := 0; i < d.NumAttrs(); i++ {
		hi[i] = float64(d.Attr(i).Size - 1)
	}
	return lo, hi
}

// PrivateKMeans runs SuLQ k-means with the plan's cached sensitivities and
// the index's cached coordinate vectors, charging eps.
func (e *Engine) PrivateKMeans(idx *DatasetIndex, k, iterations int, eps float64) (kmeans.Result, error) {
	if err := e.checkIndex(idx); err != nil {
		return kmeans.Result{}, err
	}
	if err := e.precheck(eps); err != nil {
		return kmeans.Result{}, err
	}
	m, start := e.releaseStart()
	sizeSens, sumSens, err := e.plan.KMeansSensitivities()
	if err != nil {
		return kmeans.Result{}, err
	}
	lo, hi := KMeansBox(e.plan.dom)
	cfg := kmeans.PrivateConfig{
		Config:          kmeans.Config{K: k, Iterations: iterations, Lo: lo, Hi: hi},
		Epsilon:         eps,
		SizeSensitivity: sizeSens,
		SumSensitivity:  sumSens,
	}
	vecs := idx.Vectors()
	sh := e.noiseShard()
	sh.mu.Lock()
	res, err := kmeans.PrivateLloyd(vecs, cfg, sh.src)
	sh.mu.Unlock()
	if err != nil {
		return kmeans.Result{}, err
	}
	if err := e.acct.Spend(fmt.Sprintf("kmeans|k=%d", k), eps); err != nil {
		return kmeans.Result{}, err
	}
	if m != nil {
		m.KMeans.observe(start)
	}
	return res, nil
}
