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
// noise from one stream, so concurrent releases serialize on it; a keyed
// session (CompiledPolicy.NewKeyedSession) derives each release's noise
// from its key and the release's ordinal, so releases from many goroutines
// draw noise in parallel.
type Session struct {
	pol  *Policy
	acct *Accountant
	eng  *engine.Engine
}

// NewSession creates a session for the policy with a total ε budget. The
// session draws all noise from src, release after release.
func NewSession(pol *Policy, budget float64, src *Source) (*Session, error) {
	return newSession(pol, nil, budget, src, nil)
}

// newSession opens a session over plan (compiled from pol when nil) with a
// fresh ledger. It is keyed when key is non-nil and draws from src
// otherwise.
func newSession(pol *Policy, plan *engine.Plan, budget float64, src *Source, key *NoiseKey) (*Session, error) {
	if pol == nil {
		return nil, errors.New("blowfish: nil policy")
	}
	if src == nil && key == nil {
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
	var eng *engine.Engine
	if key != nil {
		eng, err = engine.NewKeyed(plan, acct, *key)
	} else {
		eng, err = engine.New(plan, acct, src)
	}
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
// state: the budget ledger and the latest release's ordinal. A keyed
// session's noise is a function of its key and the ordinal, so a restored
// one refuses exactly the releases the pre-crash session would have and
// continues with fresh noise.
type SessionState struct {
	Accountant AccountantState `json:"accountant"`
	Ordinal    uint64          `json:"ordinal"`
}

// ExportState captures the session's state.
func (s *Session) ExportState() SessionState {
	return SessionState{Accountant: s.acct.State(), Ordinal: s.eng.Ordinal()}
}

// RestoreState overwrites the session's ledger and ordinal with a state
// captured by ExportState. The session must have been created with the
// same budget; restoration is monotone in spend and in the ordinal.
func (s *Session) RestoreState(st SessionState) error {
	if err := s.acct.Restore(st.Accountant); err != nil {
		return err
	}
	return s.eng.RestoreOrdinal(st.Ordinal)
}

// Ordinal returns the ordinal of the session's latest release.
func (s *Session) Ordinal() uint64 { return s.eng.Ordinal() }

// Replay applies a journaled release without running it again: it charges
// the ledger entry the live release charged and raises the ordinal to the
// release's (see engine.Engine.Replay). Kinds mean what they mean for an
// epoch close.
func (s *Session) Replay(kind StreamReleaseKind, eps float64, ordinal uint64) error {
	return s.eng.Replay(string(kind), eps, ordinal)
}

// Accountant exposes the budget ledger (remaining budget, release log,
// parallel spending).
func (s *Session) Accountant() *Accountant { return s.acct }

// Remaining returns the unspent budget.
func (s *Session) Remaining() float64 { return s.acct.Remaining() }

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

// ReleaseRangeAnswers releases the Ordered Hierarchical structure as
// NewRangeReleaser does, charging eps, and returns only its answers to
// queries: the bits NewRangeReleaser's Range gives, from noise drawn for
// just the nodes those answers read.
func (s *Session) ReleaseRangeAnswers(ds *Dataset, fanout int, eps float64, queries []RangeQuery) ([]float64, error) {
	idx, err := s.eng.Index(ds)
	if err != nil {
		return nil, err
	}
	return s.eng.ReleaseRangeAnswers(idx, fanout, eps, queries)
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

// ReadDatasetCSV parses a dataset from the library's CSV interchange format:
// a header of attribute names, then one integer row per tuple.
func ReadDatasetCSV(d *Domain, r io.Reader) (*Dataset, error) {
	return domain.ReadCSV(d, r)
}
