package stream

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"blowfish/internal/composition"
	"blowfish/internal/engine"
	"blowfish/internal/ordered"
)

// Window selects how epoch closes treat previously ingested tuples.
type Window string

const (
	// WindowCumulative releases over everything ingested so far (continual
	// observation of the growing dataset). The default.
	WindowCumulative Window = "cumulative"
	// WindowTumbling releases over the events of the closing epoch only,
	// then resets the dataset.
	WindowTumbling Window = "tumbling"
	// WindowSliding releases over the last Config.WindowEpochs epochs,
	// expiring older tuples at each close.
	WindowSliding Window = "sliding"
)

// ReleaseKind names one release published per epoch close.
type ReleaseKind string

const (
	// KindHistogram is the complete histogram (the block histogram h_P for
	// partition policies), Theorem 5.1 noise.
	KindHistogram ReleaseKind = "histogram"
	// KindCumulative is the Ordered Mechanism cumulative histogram.
	KindCumulative ReleaseKind = "cumulative"
	// KindRange is an Ordered Hierarchical release answering the configured
	// range queries.
	KindRange ReleaseKind = "range"
)

// Config binds a stream's window, epsilon schedule and release set.
type Config struct {
	// Window defaults to WindowCumulative.
	Window Window
	// WindowEpochs is the sliding-window width in epochs (>= 1); only for
	// WindowSliding.
	WindowEpochs int
	// Interval, when positive, makes Start close epochs automatically on a
	// ticker. Zero means epochs close only via CloseEpoch (the server's
	// manual trigger, and the deterministic path tests replay).
	Interval time.Duration
	// Epsilon is the per-epoch, per-kind ε charged at each close.
	Epsilon float64
	// Decay multiplies the epsilon each epoch (epoch e costs
	// Epsilon·Decay^e), letting long-lived streams front-load accuracy;
	// 0 is treated as 1 (constant schedule).
	Decay float64
	// Epsilons, when non-empty, overrides the schedule for the first
	// len(Epsilons) epochs; later epochs fall back to Epsilon·Decay^e.
	Epsilons []float64
	// Kinds defaults to [KindHistogram].
	Kinds []ReleaseKind
	// Fanout is the KindRange hierarchy branching factor; defaults to 16.
	Fanout int
	// RangeQueries are answered by each KindRange release.
	RangeQueries []ordered.RangeQuery
	// MaxReleases bounds the in-memory release buffer; older releases are
	// dropped (readers see a gap and resynchronize). Defaults to 1024.
	MaxReleases int
	// Logger, when set, receives the ticker goroutine's lifecycle events —
	// most importantly why an automatic stream stopped closing epochs
	// (budget exhausted, journal down). Nil logs nothing.
	Logger *slog.Logger
}

func (c *Config) fill() {
	if c.Window == "" {
		c.Window = WindowCumulative
	}
	if c.Decay == 0 {
		c.Decay = 1
	}
	if len(c.Kinds) == 0 {
		c.Kinds = []ReleaseKind{KindHistogram}
	}
	if c.Fanout == 0 {
		c.Fanout = 16
	}
	if c.MaxReleases <= 0 {
		c.MaxReleases = 1024
	}
}

// epsilonAt returns the schedule's ε for one kind at the given epoch.
func (c *Config) epsilonAt(epoch int) float64 {
	if epoch < len(c.Epsilons) {
		return c.Epsilons[epoch]
	}
	return c.Epsilon * math.Pow(c.Decay, float64(epoch))
}

// EpochRelease is the published output of one epoch close.
type EpochRelease struct {
	// Seq is the release cursor (1-based, dense); readers poll with
	// since=Seq to get everything after.
	Seq uint64
	// Epoch is the zero-based epoch number that closed.
	Epoch int
	// Events is the table's applied-mutation count at close.
	Events uint64
	// N is the dataset cardinality the releases were computed over.
	N int
	// Epsilon is the per-kind ε charged this epoch.
	Epsilon float64
	// Remaining is the stream budget left after the close.
	Remaining float64
	// Histogram holds the KindHistogram counts, nil if not configured.
	Histogram []float64
	// CumulativeRaw / CumulativeInferred hold the KindCumulative outputs.
	CumulativeRaw      []float64
	CumulativeInferred []float64
	// RangeAnswers holds one KindRange answer per configured query.
	RangeAnswers []float64
}

// Stream is the continual-release scheduler over one table: each CloseEpoch
// charges the epsilon schedule through the engine's accountant (sequential
// composition) and publishes the configured releases. Safe for concurrent
// use; epoch closes serialize among themselves but run concurrently with
// ingestion (which they lock out only for the read of the count vectors).
type Stream struct {
	eng *engine.Engine
	tbl *Table
	idx *engine.DatasetIndex
	cfg Config

	// waiters counts goroutines parked in WaitReleases right now — the
	// long-poll connections the server's release-cursor endpoint holds
	// open. Atomic so the metrics scrape never touches the epoch lock.
	waiters atomic.Int64

	mu        sync.Mutex // serializes epoch closes, guards everything below
	epoch     int
	exhausted bool
	lastClose time.Time // most recent successful close (creation time before any)
	releases  []*EpochRelease
	dropped   uint64 // releases evicted from the front of the buffer
	nextSeq   uint64
	notify    chan struct{}
	// journal, when set, is called under mu after an epoch's releases are
	// computed and charged but before the epoch advances and publishes: a
	// journal error aborts the close (the charge stands — privacy loss is
	// never under-counted — but nothing is published and the epoch may be
	// retried once durability recovers).
	journal func(epoch int) error

	startOnce sync.Once
	stopOnce  sync.Once
	quit      chan struct{}
	loopDone  chan struct{}
}

// ErrStopped is returned by WaitReleases when the stream is shut down
// while (or before) the waiter is parked: a closing server wakes every
// long-poll promptly instead of leaving them to their own deadlines.
var ErrStopped = errors.New("stream: stopped")

// New binds a stream to an engine and a table. The engine's accountant is
// the stream's budget schedule: epoch closes refuse once it is exhausted.
// Configuration that can never release (a histogram over a non-materializable
// domain, a sliding window without a width) fails here, not at first close.
//
// Any number of cumulative-window streams may share one table. Tumbling
// and sliding windows mutate shared state at each close (dataset resets,
// the table's epoch counter and tuple tags), so a windowed stream needs
// the table to itself — the HTTP server enforces one-stream-per-dataset
// whenever a non-cumulative window is involved; library callers must do
// the same.
func New(eng *engine.Engine, tbl *Table, cfg Config) (*Stream, error) {
	if eng == nil {
		return nil, errors.New("stream: nil engine")
	}
	if tbl == nil {
		return nil, errors.New("stream: nil table")
	}
	cfg.fill()
	plan := eng.Plan()
	switch cfg.Window {
	case WindowCumulative, WindowTumbling:
	case WindowSliding:
		if cfg.WindowEpochs < 1 {
			return nil, errors.New("stream: sliding window needs WindowEpochs >= 1")
		}
	default:
		return nil, fmt.Errorf("stream: unknown window %q (want cumulative, tumbling or sliding)", cfg.Window)
	}
	if !(cfg.Epsilon > 0) && len(cfg.Epsilons) == 0 {
		return nil, errors.New("stream: epsilon schedule needs Epsilon > 0 or explicit Epsilons")
	}
	for i, e := range cfg.Epsilons {
		if !(e > 0) {
			return nil, fmt.Errorf("stream: Epsilons[%d] = %v, want > 0", i, e)
		}
	}
	if cfg.Decay < 0 {
		return nil, fmt.Errorf("stream: negative decay %v", cfg.Decay)
	}
	size := int(plan.Domain().Size())
	for _, k := range cfg.Kinds {
		switch k {
		case KindHistogram:
			if plan.Partition() == nil {
				if _, err := plan.HistogramSensitivity(); err != nil {
					return nil, fmt.Errorf("stream: histogram releases unavailable: %w", err)
				}
			}
		case KindCumulative:
			if _, err := plan.CumulativeSensitivity(); err != nil {
				return nil, fmt.Errorf("stream: cumulative releases unavailable: %w", err)
			}
			if plan.Domain().NumAttrs() != 1 {
				return nil, errors.New("stream: cumulative releases require a one-dimensional domain")
			}
		case KindRange:
			if _, err := plan.OHFor(cfg.Fanout); err != nil {
				return nil, fmt.Errorf("stream: range releases unavailable: %w", err)
			}
			if len(cfg.RangeQueries) == 0 {
				return nil, errors.New("stream: range releases need at least one RangeQuery")
			}
			for i, q := range cfg.RangeQueries {
				if q.Lo < 0 || q.Hi >= size || q.Lo > q.Hi {
					return nil, fmt.Errorf("stream: range query %d: invalid [%d,%d] over domain size %d", i, q.Lo, q.Hi, size)
				}
			}
		default:
			return nil, fmt.Errorf("stream: unknown release kind %q", k)
		}
	}
	idx, err := eng.Index(tbl.Dataset())
	if err != nil {
		return nil, err
	}
	tbl.BindIndex(idx)
	if cfg.Window == WindowSliding {
		tbl.TrackEpochs()
	}
	return &Stream{
		eng:       eng,
		tbl:       tbl,
		idx:       idx,
		cfg:       cfg,
		lastClose: time.Now(),
		notify:    make(chan struct{}),
		quit:      make(chan struct{}),
		loopDone:  make(chan struct{}),
	}, nil
}

// Unbind detaches the stream's index from its table, so ingestion stops
// maintaining count vectors nobody will read. Call it when deleting a
// stream whose dataset lives on; a no-op if a newer stream has bound its
// own index since.
func (st *Stream) Unbind() { st.tbl.Unbind(st.idx) }

// Config returns the stream's configuration (with defaults filled).
func (st *Stream) Config() Config { return st.cfg }

// CloseEpoch closes the current epoch: sliding windows expire tuples that
// age out, the configured releases are computed and charged at the epoch's
// scheduled ε, tumbling windows reset, and the release is published to the
// buffer. Past budget (or schedule) exhaustion it fails with an error
// wrapping composition.ErrBudgetExceeded and the stream stays permanently
// exhausted; the epoch does not advance on failure.
//
// The whole epoch's cost is prechecked before any kind runs, so a failed
// close normally charges nothing. The one exception is an accountant
// shared with ad-hoc releases (Session.NewStream shares the session
// budget): a concurrent spend landing between kinds can let earlier kinds
// charge and a later one fail, discarding the epoch unpublished. The
// charge stands — privacy loss is never under-counted — and the epoch may
// be retried; give a stream its own session to rule the race out.
func (st *Stream) CloseEpoch() (*EpochRelease, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	eps := st.cfg.epsilonAt(st.epoch)
	if !(eps > 0) {
		// An explicit Epsilons list that ran out (with no base Epsilon to
		// fall back to) is a finite budget schedule reaching its end: the
		// stream is terminally exhausted, exactly as if the ε budget had
		// run dry — the ticker stops and long-pollers get the signal.
		st.exhausted = true
		return nil, fmt.Errorf("stream: epoch %d has no scheduled epsilon (schedule exhausted): %w", st.epoch, composition.ErrBudgetExceeded)
	}
	// Refuse the whole epoch up front when the full per-epoch cost cannot
	// fit: a partial epoch (first kind charged, second refused) would leak a
	// half-published release. The per-release Spend below stays the
	// authoritative atomic gate.
	if err := st.eng.Accountant().CanSpend(eps * float64(len(st.cfg.Kinds))); err != nil {
		st.exhausted = errors.Is(err, composition.ErrBudgetExceeded)
		return nil, err
	}
	if st.cfg.Window == WindowSliding {
		cutoff := int32(st.epoch - st.cfg.WindowEpochs + 1)
		if _, err := st.tbl.ExpireBefore(cutoff); err != nil {
			return nil, fmt.Errorf("stream: expiring epoch %d window: %w", st.epoch, err)
		}
	}
	rel := &EpochRelease{Epoch: st.epoch, Epsilon: eps}
	st.tbl.RLock()
	err := st.computeLocked(rel)
	rel.Events = st.tbl.applied
	rel.N = st.tbl.ds.Len()
	if err == nil && st.journal != nil {
		// The epoch record must be appended while the table read lock is
		// still held: an ingest batch journaling in the gap would order
		// itself before this record, and replay would then re-execute the
		// close over the mutated table — with the same ordinals, hence the
		// same noise, republishing a *different* value under the same
		// release cursor (subtracting the two fetches would cancel the
		// noise and expose the raw count delta). Under the lock, the WAL
		// order is exactly the table-state order the close observed.
		if jerr := st.journal(st.epoch); jerr != nil {
			err = fmt.Errorf("stream: journaling epoch %d close: %w: %w", st.epoch, ErrJournalFailed, jerr)
		}
	}
	st.tbl.RUnlock()
	if err != nil {
		st.exhausted = st.exhausted || errors.Is(err, composition.ErrBudgetExceeded)
		return nil, err
	}
	if st.cfg.Window == WindowTumbling {
		if _, err := st.tbl.Reset(); err != nil {
			return nil, fmt.Errorf("stream: tumbling reset: %w", err)
		}
	}
	st.epoch++
	st.tbl.AdvanceEpoch()
	st.lastClose = time.Now()
	rel.Remaining = st.eng.Accountant().Remaining()
	st.nextSeq++
	rel.Seq = st.nextSeq
	st.releases = append(st.releases, rel)
	if len(st.releases) > st.cfg.MaxReleases {
		over := len(st.releases) - st.cfg.MaxReleases
		st.releases = append(st.releases[:0:0], st.releases[over:]...)
		st.dropped += uint64(over)
	}
	close(st.notify)
	st.notify = make(chan struct{})
	return rel, nil
}

// computeLocked runs every configured release kind under the table read
// lock, filling rel. Each kind charges eps through the engine.
func (st *Stream) computeLocked(rel *EpochRelease) error {
	for _, k := range st.cfg.Kinds {
		switch k {
		case KindHistogram:
			var counts []float64
			var err error
			if st.eng.Plan().Partition() != nil {
				counts, err = st.eng.ReleasePartitionHistogram(st.idx, nil, rel.Epsilon)
			} else {
				counts, err = st.eng.ReleaseHistogram(st.idx, rel.Epsilon)
			}
			if err != nil {
				return err
			}
			rel.Histogram = counts
		case KindCumulative:
			raw, inferred, err := st.eng.ReleaseCumulative(st.idx, rel.Epsilon)
			if err != nil {
				return err
			}
			rel.CumulativeRaw, rel.CumulativeInferred = raw, inferred
		case KindRange:
			answers, err := st.eng.ReleaseRangeAnswers(st.idx, st.cfg.Fanout, rel.Epsilon, st.cfg.RangeQueries)
			if err != nil {
				return err
			}
			rel.RangeAnswers = answers
		}
	}
	return nil
}

// Releases returns the buffered releases with Seq > since, oldest first.
// When since predates the buffer (evicted releases), it returns what
// remains; Status().FirstSeq tells readers where the buffer starts.
func (st *Stream) Releases(since uint64) []*EpochRelease {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.releasesLocked(since)
}

func (st *Stream) releasesLocked(since uint64) []*EpochRelease {
	// releases[i].Seq == dropped + i + 1, so the first index past `since`
	// is computable directly. The cursor is caller-supplied (the server
	// passes it straight from the URL), so compare in uint64 before any
	// int conversion: a huge cursor means "past everything", never a
	// wrapped negative index.
	start := 0
	if since > st.dropped {
		over := since - st.dropped
		if over >= uint64(len(st.releases)) {
			return nil
		}
		start = int(over)
	}
	return append([]*EpochRelease(nil), st.releases[start:]...)
}

// WaitReleases blocks until at least one release with Seq > since exists
// (returning everything buffered past the cursor), the context is done,
// the stream is stopped (ErrStopped — a shutdown must wake every parked
// waiter promptly, not leave them to their own deadlines), or the stream
// is exhausted with nothing left to wait for.
func (st *Stream) WaitReleases(ctx context.Context, since uint64) ([]*EpochRelease, error) {
	st.waiters.Add(1)
	defer st.waiters.Add(-1)
	for {
		st.mu.Lock()
		rels := st.releasesLocked(since)
		exhausted, ch := st.exhausted, st.notify
		st.mu.Unlock()
		if len(rels) > 0 {
			return rels, nil
		}
		if exhausted {
			return nil, composition.ErrBudgetExceeded
		}
		select {
		case <-ch:
		case <-st.quit:
			return nil, ErrStopped
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// SetJournal installs the write-ahead hook CloseEpoch calls once an
// epoch's releases are computed and charged, before they publish. Install
// it before Start and before the first close; the hook runs under the
// stream's epoch lock, so it must not call back into the stream.
func (st *Stream) SetJournal(fn func(epoch int) error) {
	st.mu.Lock()
	st.journal = fn
	st.mu.Unlock()
}

// State is the serializable progress of a stream: the epoch cursor and the
// published-release buffer. Together with the backing session's
// SessionState (budget ledger + ordinal) and the table's TableState it is
// everything a recovery needs to resume the stream where the snapshot left
// it — cursors intact, and for a keyed session future releases
// bit-for-bit.
type State struct {
	Epoch     int             `json:"epoch"`
	Exhausted bool            `json:"exhausted,omitempty"`
	NextSeq   uint64          `json:"next_seq"`
	Dropped   uint64          `json:"dropped,omitempty"`
	Releases  []*EpochRelease `json:"releases,omitempty"`
}

// ExportState captures the stream's progress. The release pointers are
// shared — published releases are immutable — so the export is cheap.
func (st *Stream) ExportState() State {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.exportLocked()
}

func (st *Stream) exportLocked() State {
	return State{
		Epoch:     st.epoch,
		Exhausted: st.exhausted,
		NextSeq:   st.nextSeq,
		Dropped:   st.dropped,
		Releases:  append([]*EpochRelease(nil), st.releases...),
	}
}

// Snapshot captures the stream's progress and runs f under the same epoch
// lock, so no close can land between the two: recovery checkpoints use f
// to export the backing session's ledger and ordinal atomically with the
// epoch cursor.
func (st *Stream) Snapshot(f func()) State {
	st.mu.Lock()
	defer st.mu.Unlock()
	f()
	return st.exportLocked()
}

// RestoreState overwrites the stream's progress with an exported state.
// Only a fresh stream (no closes yet) may be restored, and the release
// buffer must be dense: releases[i].Seq == dropped+i+1, the invariant the
// cursor arithmetic of Releases depends on.
func (st *Stream) RestoreState(s State) error {
	if s.Epoch < 0 || s.NextSeq < s.Dropped {
		return errors.New("stream: invalid restored state")
	}
	for i, rel := range s.Releases {
		if rel == nil || rel.Seq != s.Dropped+uint64(i)+1 {
			return errors.New("stream: restored release buffer is not cursor-dense")
		}
	}
	if len(s.Releases) > 0 && s.Releases[len(s.Releases)-1].Seq != s.NextSeq {
		return errors.New("stream: restored release buffer does not end at the cursor")
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.epoch != 0 || st.nextSeq != 0 || len(st.releases) != 0 {
		return errors.New("stream: state restore requires a fresh stream")
	}
	st.epoch = s.Epoch
	st.exhausted = s.Exhausted
	st.nextSeq = s.NextSeq
	st.dropped = s.Dropped
	st.releases = append([]*EpochRelease(nil), s.Releases...)
	return nil
}

// Status is a snapshot of a stream's progress.
type Status struct {
	// Epoch is the next epoch to close (== closes so far).
	Epoch int
	// Exhausted reports that a close was refused for budget and every
	// future close will be.
	Exhausted bool
	// Releases is the number of buffered releases; FirstSeq/LastSeq bound
	// their cursors (0 when empty).
	Releases int
	FirstSeq uint64
	LastSeq  uint64
	// NextEpsilon is the per-kind ε the next close would charge.
	NextEpsilon float64
	// Remaining is the unspent stream budget.
	Remaining float64
	// N is the current dataset cardinality; Events the mutations applied.
	N      int
	Events uint64
	// LastClose is the wall time of the most recent successful epoch close
	// (stream creation time before any); now − LastClose is the epoch lag
	// the metrics endpoint exports.
	LastClose time.Time
	// Waiters is the number of goroutines currently parked in
	// WaitReleases (long-poll release-cursor readers).
	Waiters int
}

// Status returns a snapshot of the stream.
func (st *Stream) Status() Status {
	st.mu.Lock()
	s := Status{
		Epoch:       st.epoch,
		Exhausted:   st.exhausted,
		Releases:    len(st.releases),
		NextEpsilon: st.cfg.epsilonAt(st.epoch),
		Remaining:   st.eng.Accountant().Remaining(),
		LastClose:   st.lastClose,
		Waiters:     int(st.waiters.Load()),
	}
	if len(st.releases) > 0 {
		s.FirstSeq = st.releases[0].Seq
		s.LastSeq = st.releases[len(st.releases)-1].Seq
	}
	st.mu.Unlock()
	s.N = st.tbl.Len()
	s.Events = st.tbl.Applied()
	return s
}

// Start launches the automatic epoch ticker when Config.Interval is
// positive; otherwise it is a no-op (epochs close via CloseEpoch). The
// ticker stops itself at budget exhaustion.
func (st *Stream) Start() {
	st.startOnce.Do(func() {
		if st.cfg.Interval <= 0 {
			close(st.loopDone)
			return
		}
		go func() {
			defer close(st.loopDone)
			t := time.NewTicker(st.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-st.quit:
					return
				case <-t.C:
					rel, err := st.CloseEpoch()
					if errors.Is(err, composition.ErrBudgetExceeded) {
						if l := st.cfg.Logger; l != nil {
							l.Warn("stream ticker stopped: budget exhausted",
								"epoch", st.Status().Epoch, "err", err)
						}
						return
					}
					if errors.Is(err, ErrJournalFailed) {
						// The durable backend is down (journal failures
						// are sticky). Each automatic retry would charge
						// the epoch's ε again and publish nothing —
						// draining the whole budget unseen — so the
						// ticker stops; manual closes still surface the
						// error to the operator.
						if l := st.cfg.Logger; l != nil {
							l.Error("stream ticker stopped: epoch journal failed",
								"epoch", st.Status().Epoch, "err", err)
						}
						return
					}
					if err == nil {
						if l := st.cfg.Logger; l != nil {
							l.Debug("epoch closed",
								"epoch", rel.Epoch, "seq", rel.Seq,
								"epsilon", rel.Epsilon, "remaining", rel.Remaining)
						}
					}
				}
			}
		}()
	})
}

// Stop halts the automatic ticker (if running) and waits for it to exit.
// Safe to call multiple times and without Start.
func (st *Stream) Stop() {
	<-st.Shutdown()
}

// Shutdown is the non-blocking half of Stop: it signals the ticker to
// exit and returns a channel that closes when the loop has. Server.Close
// uses it to signal every stream first and then wait on all of them
// under one deadline. Safe to call multiple times and without Start.
func (st *Stream) Shutdown() <-chan struct{} {
	st.startOnce.Do(func() { close(st.loopDone) }) // never started: nothing to wait on
	st.stopOnce.Do(func() { close(st.quit) })
	return st.loopDone
}
