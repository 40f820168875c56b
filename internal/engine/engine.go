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

// Engine serves releases from a compiled Plan: truth vectors come from
// DatasetIndexes, and every charge goes through one atomic Accountant, so
// parallel releases never overspend. Releases are computed first and
// charged second, exactly like Session: a failed charge discards the
// computed values unpublished.
//
// Every release takes the next ordinal. A sequential engine (New) draws all
// noise from the caller's Source in turn — the library's determinism
// contract; a keyed engine (NewKeyed) draws each release's noise from the
// generator derived from (key, ordinal), without a lock. No (key, ordinal)
// pair may serve two published releases: ordinals only rise, and a durable
// server resumes them from its snapshot and WAL (RestoreOrdinal, Replay).
// An ordinal whose release was refused or never journaled published
// nothing, so a restart may hand it out again.
type Engine struct {
	plan *Plan
	acct *composition.Accountant
	// seq holds a sequential engine's Source (nil when keyed): a release
	// takes it out and puts it back, so no two releases draw at once.
	seq     chan *noise.Source
	key     noise.Key
	ord     atomic.Uint64 // the latest release's ordinal
	metrics atomic.Pointer[Metrics]
}

// keyedNoise recycles the generators keyed releases reseed in place.
var keyedNoise = sync.Pool{New: func() any { return new(noise.Source) }}

// New creates an engine over a compiled plan that draws all noise from src.
func New(plan *Plan, acct *composition.Accountant, src *noise.Source) (*Engine, error) {
	e, err := NewKeyed(plan, acct, noise.Key{})
	if err != nil {
		return nil, err
	}
	if src == nil {
		return nil, errors.New("engine: nil noise source")
	}
	e.seq = make(chan *noise.Source, 1)
	e.seq <- src
	return e, nil
}

// NewKeyed creates an engine over a compiled plan whose release with
// ordinal n draws from the generator derived from (key, n).
func NewKeyed(plan *Plan, acct *composition.Accountant, key noise.Key) (*Engine, error) {
	if plan == nil {
		return nil, errors.New("engine: nil plan")
	}
	if acct == nil {
		return nil, errors.New("engine: nil accountant")
	}
	return &Engine{plan: plan, acct: acct, key: key}, nil
}

// Plan returns the compiled policy plan.
func (e *Engine) Plan() *Plan { return e.plan }

// Accountant returns the budget ledger shared by every release.
func (e *Engine) Accountant() *composition.Accountant { return e.acct }

// Index returns the shared dataset index for ds (see Plan.Index).
func (e *Engine) Index(ds *domain.Dataset) (*DatasetIndex, error) { return e.plan.Index(ds) }

// Ordinal returns the latest release's ordinal (0 before any).
func (e *Engine) Ordinal() uint64 { return e.ord.Load() }

// RestoreOrdinal resumes the counter at a checkpointed ordinal. It refuses
// to move the counter back, which would hand a keyed engine's next
// release a published release's noise.
func (e *Engine) RestoreOrdinal(ord uint64) error {
	if cur := e.ord.Load(); ord < cur {
		return fmt.Errorf("engine: restoring ordinal %d behind the current %d", ord, cur)
	}
	e.ord.Store(ord)
	return nil
}

// kind names a release kind for the ledger. K-means charges under its own
// label, which carries k; a server never journals it, so no replay needs it.
type kind uint8

const (
	kindHistogram  kind = iota + 1 // the complete histogram h
	kindPartition                  // a partition's block histogram h_P
	kindCumulative                 // the Ordered Mechanism
	kindRange                      // the Ordered Hierarchical structure
)

// charge records a release's ledger entry: eps under its kind's label, or
// nothing for an exact partition release (no secret pair crosses a block).
// part is a kindPartition release's partition, nil for the plan's own. The
// release paths and Replay all charge through it.
func (e *Engine) charge(k kind, part domain.Partition, eps float64) error {
	var label string
	switch k {
	case kindHistogram:
		label = "histogram"
	case kindPartition:
		if part == nil {
			part = e.plan.part
		}
		if sens, err := e.plan.PartitionSensitivity(part); err != nil || sens == 0 {
			return err
		}
		label = fmt.Sprintf("partition-histogram|%d", part.NumBlocks())
	case kindCumulative:
		label = "cumulative-histogram"
	case kindRange:
		label = "range-releaser"
	}
	return e.acct.Spend(label, eps)
}

// replayKinds maps the release kinds a journal records, named as an epoch
// close names them, to ledger kinds.
var replayKinds = map[string]kind{"histogram": kindHistogram, "cumulative": kindCumulative, "range": kindRange}

// Replay applies a journaled release without running it again: it charges
// what the live release charged and raises the ordinal to the record's. A
// record at or below the ordinal is already reflected (a snapshot covered
// it) and applies nothing. Under a partition policy a histogram is the
// block histogram, as for an epoch close.
func (e *Engine) Replay(name string, eps float64, ordinal uint64) error {
	k, ok := replayKinds[name]
	if !ok {
		return fmt.Errorf("engine: unknown release kind %q", name)
	}
	if k == kindHistogram && e.plan.part != nil {
		k = kindPartition
	}
	if ordinal <= e.ord.Load() {
		return nil
	}
	if err := e.charge(k, nil, eps); err != nil {
		return err
	}
	e.ord.Store(ordinal)
	return nil
}

// noiseFor takes the next ordinal for a noisy release and returns the
// generator it draws from; callers hand it back with doneNoise inline — a
// closure-based wrapper would cost an allocation on every release.
func (e *Engine) noiseFor() *noise.Source {
	if m := e.metrics.Load(); m != nil && m.NoiseDraws != nil {
		m.NoiseDraws.Inc()
	}
	if e.seq != nil {
		src := <-e.seq
		e.ord.Add(1)
		return src
	}
	src := keyedNoise.Get().(*noise.Source)
	src.Reseed(&e.key, e.ord.Add(1))
	return src
}

// doneNoise hands back the generator noiseFor returned.
func (e *Engine) doneNoise(src *noise.Source) {
	if e.seq != nil {
		e.seq <- src
		return
	}
	keyedNoise.Put(src)
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
	src := e.noiseFor()
	m, err := mechanism.NewLaplace(eps, sens, src)
	if err == nil {
		m.ReleaseInPlace(truth)
	}
	e.doneNoise(src)
	if err != nil {
		return nil, err
	}
	if err := e.charge(kindHistogram, nil, eps); err != nil {
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
		// No secret pair crosses blocks: exact, free, no noise drawn. It
		// still takes an ordinal, as every release a server journals does.
		e.ord.Add(1)
		if mt != nil {
			mt.Partition.observe(start)
		}
		return truth, nil
	}
	src := e.noiseFor()
	m, err := mechanism.NewLaplace(eps, sens, src)
	if err == nil {
		m.ReleaseInPlace(truth)
	}
	e.doneNoise(src)
	if err != nil {
		return nil, err
	}
	if err := e.charge(kindPartition, part, eps); err != nil {
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
	src := e.noiseFor()
	raw, err = ordered.ReleaseCumulative(cum, sens, eps, src)
	e.doneNoise(src)
	*buf = cum
	e.plan.putVec(buf)
	if err != nil {
		return nil, nil, err
	}
	inferred = ordered.InferCumulative(raw, float64(n))
	if err := e.charge(kindCumulative, nil, eps); err != nil {
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
	rel, _, err := e.releaseRange(idx, fanout, eps, nil)
	return rel, err
}

// ReleaseRangeAnswers is NewRangeRelease for callers that keep only the
// answers to queries: one ordinal, one charge of eps, and the answers the
// released structure's Range gives, bit for bit. Only the nodes those
// answers read are noised, and only the answers are allocated.
func (e *Engine) ReleaseRangeAnswers(idx *DatasetIndex, fanout int, eps float64, queries []ordered.RangeQuery) ([]float64, error) {
	if len(queries) == 0 {
		return nil, errors.New("engine: a range release needs at least one query")
	}
	_, answers, err := e.releaseRange(idx, fanout, eps, queries)
	return answers, err
}

// releaseRange runs one Ordered Hierarchical release: the whole structure
// when queries is nil, and otherwise only the answers to queries.
func (e *Engine) releaseRange(idx *DatasetIndex, fanout int, eps float64, queries []ordered.RangeQuery) (*ordered.OHRelease, []float64, error) {
	if err := e.checkIndex(idx); err != nil {
		return nil, nil, err
	}
	if err := e.precheck(eps); err != nil {
		return nil, nil, err
	}
	m, start := e.releaseStart()
	oh, err := e.plan.OHFor(fanout)
	if err != nil {
		return nil, nil, err
	}
	// The histogram is pure staging for the OH release — the released
	// structure carves its own storage — so it comes from the plan's arena.
	buf := e.plan.getVec()
	counts, err := idx.HistogramAppend((*buf)[:0])
	if err != nil {
		e.plan.putVec(buf)
		return nil, nil, err
	}
	src := e.noiseFor()
	var rel *ordered.OHRelease
	var answers []float64
	if queries == nil {
		rel, err = oh.Release(counts, eps, src)
	} else {
		answers, err = oh.ReleaseAnswers(counts, eps, src, queries)
	}
	e.doneNoise(src)
	*buf = counts
	e.plan.putVec(buf)
	if err != nil {
		return nil, nil, err
	}
	if err := e.charge(kindRange, nil, eps); err != nil {
		return nil, nil, err
	}
	if m != nil {
		m.Range.observe(start)
	}
	return rel, answers, nil
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
	src := e.noiseFor()
	res, err := kmeans.PrivateLloyd(vecs, cfg, src)
	e.doneNoise(src)
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
