package blowfish

import (
	"errors"
	"io"

	"blowfish/internal/domain"
	"blowfish/internal/engine"
	"blowfish/internal/stream"
)

// Session ties a policy, a privacy-budget accountant and a noise source
// together: every release is charged against the budget before anything is
// returned, so a data publisher cannot accidentally overspend. Releases are
// computed first and charged second — if the charge fails, the computed
// values are discarded unpublished, so a failed call costs nothing.
//
// Budget arithmetic follows sequential composition (Theorem 4.1); use the
// underlying Accountant's SpendParallel for disjoint-subset workloads
// (Theorem 4.2).
//
// Every session runs on the compiled release engine: the policy's
// sensitivities and tree layouts are computed once at session creation
// (for a constrained policy, its Section 8 histogram bound too), and each
// dataset's count vectors are indexed on first use and maintained
// incrementally, so repeated releases never rescan the tuples.
//
// A Session is safe for concurrent use and never overspends: each charge is
// atomic against the remaining budget. A Session from NewSession draws all
// noise from one stream, so concurrent releases serialize on it;
// NewSessionShards gives the engine a pool of independent Split streams so
// releases from many goroutines draw noise in parallel.
type Session struct {
	pol  *Policy
	acct *Accountant
	eng  *engine.Engine
}

// NewSession creates a session for the policy with a total ε budget. The
// session draws all noise from src; see NewSessionShards for parallel noise
// generation.
func NewSession(pol *Policy, budget float64, src *Source) (*Session, error) {
	return NewSessionShards(pol, budget, src, 1)
}

// NewSessionShards creates a session whose engine draws noise from a pool
// of `shards` independent streams derived from src (values < 1 are treated
// as 1), so releases issued from many goroutines proceed concurrently
// instead of serializing on a single source. With shards == 1 the session
// is bit-for-bit identical to NewSession.
func NewSessionShards(pol *Policy, budget float64, src *Source, shards int) (*Session, error) {
	return newSession(pol, nil, budget, src, shards)
}

func newSession(pol *Policy, plan *engine.Plan, budget float64, src *Source, shards int) (*Session, error) {
	if pol == nil {
		return nil, errors.New("blowfish: nil policy")
	}
	if src == nil {
		return nil, errors.New("blowfish: nil noise source")
	}
	acct, err := NewAccountant(budget)
	if err != nil {
		return nil, err
	}
	if plan == nil {
		if plan, err = engine.Compile(pol); err != nil {
			return nil, err
		}
	}
	eng, err := engine.New(plan, acct, src, shards)
	if err != nil {
		return nil, err
	}
	return &Session{pol: pol, acct: acct, eng: eng}, nil
}

// Policy returns the session's policy.
func (s *Session) Policy() *Policy { return s.pol }

// EngineMetrics aliases engine.Metrics: the pre-resolved per-release-kind
// instruments (latency histogram + count) a session's engine reports into.
type EngineMetrics = engine.Metrics

// EngineReleaseMetrics aliases engine.ReleaseMetrics, one kind's slot of
// an EngineMetrics.
type EngineReleaseMetrics = engine.ReleaseMetrics

// SetEngineMetrics installs release instrumentation on the session's
// engine (per-kind latency histograms, release counts, noise-draw
// stats). Resolve any labeled metric children before the call — the
// engine's hot paths only ever touch the bare pointers. Pass nil to
// disable.
func (s *Session) SetEngineMetrics(m *EngineMetrics) { s.eng.SetMetrics(m) }

// SessionState is a serializable snapshot of a session's replay-relevant
// state: the budget ledger and the exact position of every noise stream.
// The durable server checkpoints it so a restarted session refuses exactly
// the releases the pre-crash session would have, and (for single-shard
// seeded sessions) continues the identical noise stream.
type SessionState struct {
	Accountant AccountantState   `json:"accountant"`
	Noise      engine.NoiseState `json:"noise"`
}

// ExportState captures the session's state.
func (s *Session) ExportState() (SessionState, error) {
	noise, err := s.eng.ExportNoise()
	if err != nil {
		return SessionState{}, err
	}
	return SessionState{Accountant: s.acct.State(), Noise: noise}, nil
}

// RestoreState overwrites the session's ledger and noise streams with a
// state captured by ExportState. The session must have been created with
// the same budget and shard count; restoration is monotone in spend.
func (s *Session) RestoreState(st SessionState) error {
	if err := s.acct.Restore(st.Accountant); err != nil {
		return err
	}
	return s.eng.RestoreNoise(st.Noise)
}

// Accountant exposes the budget ledger (remaining budget, release log,
// parallel spending).
func (s *Session) Accountant() *Accountant { return s.acct }

// Remaining returns the unspent budget.
func (s *Session) Remaining() float64 { return s.acct.Remaining() }

// Forget drops the engine's cached count vectors for ds, releasing their
// memory. Call it when a long-lived session streams many short-lived
// datasets; the next release over ds rebuilds the index. For sessions
// minted from a shared CompiledPolicy the cache is shared, so sibling
// sessions over the same dataset rebuild on their next release too.
func (s *Session) Forget(ds *Dataset) { s.eng.Plan().Forget(ds) }

// ReleaseHistogram releases the complete histogram, charging eps.
func (s *Session) ReleaseHistogram(ds *Dataset, eps float64) ([]float64, error) {
	idx, err := s.eng.Index(ds)
	if err != nil {
		return nil, err
	}
	return s.eng.ReleaseHistogram(idx, eps)
}

// ReleasePartitionHistogram releases the block histogram, charging eps only
// when the release is actually noisy; a zero-sensitivity (exact) release is
// free, as Section 5's coarse-grid observation permits.
func (s *Session) ReleasePartitionHistogram(ds *Dataset, part Partition, eps float64) ([]float64, error) {
	idx, err := s.eng.Index(ds)
	if err != nil {
		return nil, err
	}
	return s.eng.ReleasePartitionHistogram(idx, part, eps)
}

// PrivateKMeans runs SuLQ k-means, charging eps.
func (s *Session) PrivateKMeans(ds *Dataset, k, iterations int, eps float64) (KMeansResult, error) {
	idx, err := s.eng.Index(ds)
	if err != nil {
		return KMeansResult{}, err
	}
	return s.eng.PrivateKMeans(idx, k, iterations, eps)
}

// ReleaseCumulativeHistogram runs the Ordered Mechanism, charging eps.
func (s *Session) ReleaseCumulativeHistogram(ds *Dataset, eps float64) (*CumulativeRelease, error) {
	idx, err := s.eng.Index(ds)
	if err != nil {
		return nil, err
	}
	raw, inferred, err := s.eng.ReleaseCumulative(idx, eps)
	if err != nil {
		return nil, err
	}
	return &CumulativeRelease{Raw: raw, Inferred: inferred}, nil
}

// NewRangeReleaser builds an Ordered Hierarchical release, charging eps.
// The tree layout comes from the plan's cache, so only the first release
// for a given fanout pays tree construction.
func (s *Session) NewRangeReleaser(ds *Dataset, fanout int, eps float64) (*RangeReleaser, error) {
	idx, err := s.eng.Index(ds)
	if err != nil {
		return nil, err
	}
	rel, err := s.eng.NewRangeRelease(idx, fanout, eps)
	if err != nil {
		return nil, err
	}
	return &RangeReleaser{release: rel}, nil
}

// NewStream binds a continual-release stream to the session: epoch closes
// draw noise from the session's engine and charge its accountant, so a
// stream and ad-hoc releases from the same session spend one shared ε
// budget by sequential composition. The table's dataset is indexed through
// the session's compiled plan, keeping its count vectors incremental under
// ingestion. A constrained policy streams histograms only; its other
// release kinds are refused here, as they are for ad-hoc releases.
func (s *Session) NewStream(tbl *StreamTable, cfg StreamConfig) (*Stream, error) {
	return stream.New(s.eng, tbl, cfg)
}

// ReadDatasetCSV parses a dataset from the library's CSV interchange format
// (a header of attribute names, one integer row per tuple); Dataset.WriteCSV
// produces it.
func ReadDatasetCSV(d *Domain, r io.Reader) (*Dataset, error) {
	return domain.ReadCSV(d, r)
}
