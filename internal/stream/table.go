// Package stream is the streaming ingestion and continual-release
// subsystem: an append/upsert/delete event log applied onto the release
// engine's incremental DatasetIndex, and an epoch scheduler that publishes
// noisy releases from the compiled plan on a per-epoch epsilon schedule
// until the stream's privacy budget is spent.
//
// The paper makes continual observation affordable in exactly two ways this
// package operationalizes: policy-calibrated sensitivities (Sec. 6, Lemma
// 6.1) keep each epoch's noise small, and sequential composition (Theorem
// 3.6 / 4.1) turns a total ε budget into a schedule of per-epoch charges
// through composition.Accountant. The subsystem is two pieces:
//
//   - Table wraps one Dataset behind a readers-writer lock and is its
//     event log: Table.Ingest numbers each batch after the table's
//     cursor, journals it write-ahead and applies it through
//     DatasetIndex.ApplyBatch under one write-lock acquisition, on the
//     caller's goroutine, amortizing the index lock over the whole batch.
//     Window expiry takes the write side too, releases the read side, so
//     the engine's unsynchronized Dataset contract holds under full
//     server concurrency no matter how many plans index the dataset.
//   - Stream closes epochs: tumbling, sliding or cumulative windows, one
//     noisy release set per epoch close, published to a cursor-addressed
//     buffer that readers long-poll.
package stream

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blowfish/internal/domain"
	"blowfish/internal/engine"
	"blowfish/internal/metrics"
)

// ErrJournalFailed marks a batch or epoch close refused because its
// write-ahead record could not be appended: the operation was NOT applied
// and must not be acknowledged. Journal failures are sticky at the log
// layer (the on-disk tail may be torn), so callers treat this as the
// durable backend being down, not a per-item rejection.
var ErrJournalFailed = errors.New("stream: write-ahead journal append failed")

// Table is the synchronization point for one streamed dataset. The engine's
// DatasetIndex only locks its own caches — the Dataset underneath is
// unsynchronized — so every mutation path (ingest batches, their replay,
// window expiry) takes the table's write lock and every release path takes
// the read lock. Any number of plans may index the dataset; they all read
// under the same lock.
type Table struct {
	mu sync.RWMutex
	ds *domain.Dataset
	// rows is ds.Len() as of the last write through the table, stored
	// before the write lock is released, so Len needs no lock.
	rows atomic.Int64
	// idx, when bound, keeps one plan's count vectors incremental under
	// ingestion; other plans' indexes rebuild via the generation counter.
	idx *engine.DatasetIndex
	// applied counts mutations applied through the table since creation.
	applied uint64
	// epochOf mirrors the dataset's tuple order with the epoch each tuple
	// was ingested in (swap semantics mirrored from Dataset.Remove); nil
	// until TrackEpochs. curEpoch is the epoch new tuples are tagged with.
	epochOf  []int32
	curEpoch int32
	tracking bool
	// lastSeq is the highest event sequence number whose batch has been
	// applied — the cursor Ingest numbers the next batch after, and the
	// recovery cursor: a snapshot taken under the table lock pairs the
	// tuples with exactly this seq, so WAL replay knows which event batches
	// the snapshot already reflects.
	lastSeq uint64
	// journal, when set, is called write-ahead: under the same lock
	// acquisition that applies the batch, before any mutation lands. A
	// journal error rejects the whole batch, so no event is ever applied
	// without being durable first.
	journal func(firstSeq uint64, muts []engine.Mutation) error
	// metrics, when set, instruments Ingest.
	metrics *IngestMetrics
}

// IngestMetrics are the pre-resolved instruments a table's Ingest reports
// into, once per batch after the write lock is released. Any field may be
// nil.
type IngestMetrics struct {
	// ApplySeconds observes the latency of each batch apply — lock wait,
	// journal append (and its fsync, under fsync=always) plus the index
	// update.
	ApplySeconds *metrics.Histogram
	// Batches and Events count applied batches and the events in them.
	Batches *metrics.Counter
	Events  *metrics.Counter
	// Rejected counts apply-time rejections (bad tuple ids).
	Rejected *metrics.Counter
	// JournalFailures counts batches refused by a failed write-ahead
	// append (nothing applied, cursor held back).
	JournalFailures *metrics.Counter
}

// NewTable wraps ds. The dataset must not be mutated except through the
// table once streaming begins.
func NewTable(ds *domain.Dataset) (*Table, error) {
	if ds == nil {
		return nil, errors.New("stream: nil dataset")
	}
	t := &Table{ds: ds}
	t.rows.Store(int64(ds.Len()))
	return t, nil
}

// Dataset returns the wrapped dataset. Read it only under RLock; mutate it
// only through the table.
func (t *Table) Dataset() *domain.Dataset { return t.ds }

// RLock takes the table's read lock. Every release over the dataset —
// through any session or engine — must run between RLock and RUnlock so it
// cannot observe a torn mutation batch.
func (t *Table) RLock() { t.mu.RLock() }

// RUnlock releases the read lock.
func (t *Table) RUnlock() { t.mu.RUnlock() }

// BindIndex routes subsequent batches through idx, keeping that plan's
// count vectors incremental instead of rebuilt per release. Binding a new
// index (a second stream over another policy) is allowed: the previous
// plan's index falls back to generation-triggered rebuilds.
func (t *Table) BindIndex(idx *engine.DatasetIndex) {
	t.mu.Lock()
	t.idx = idx
	t.mu.Unlock()
}

// Unbind drops the bound index if it is still idx, so batches stop
// maintaining count vectors for a stream that no longer exists. A no-op
// when another stream has since bound its own index.
func (t *Table) Unbind(idx *engine.DatasetIndex) {
	t.mu.Lock()
	if t.idx == idx {
		t.idx = nil
	}
	t.mu.Unlock()
}

// TrackEpochs starts tagging ingested tuples with the current epoch, the
// bookkeeping sliding windows expire against. Tuples already present are
// tagged with the current epoch.
func (t *Table) TrackEpochs() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tracking {
		return
	}
	t.tracking = true
	t.epochOf = make([]int32, t.ds.Len())
	for i := range t.epochOf {
		t.epochOf[i] = t.curEpoch
	}
}

// Len returns the dataset cardinality as of the last write through the
// table, without taking the lock. A caller that only needs the count must
// not queue behind a waiting writer: Go's RWMutex blocks new readers once a
// writer waits, so a read lock taken while the same goroutine (or one it
// waits on) already holds one would deadlock.
func (t *Table) Len() int { return int(t.rows.Load()) }

// Applied returns the number of mutations applied through the table.
func (t *Table) Applied() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.applied
}

// applyLocked applies mutations in order, through the bound index when
// present (one index-lock acquisition per batch) and directly onto the
// dataset otherwise. On the first failing mutation it stops, returning how
// many applied and the error; the applied prefix stays applied. The caller
// holds t.mu for writing.
func (t *Table) applyLocked(muts []engine.Mutation) (int, error) {
	var n int
	var err error
	if t.idx != nil {
		n, err = t.idx.ApplyBatch(muts)
	} else {
		for _, m := range muts {
			switch m.Op {
			case engine.MutAdd:
				err = t.ds.Add(m.P)
			case engine.MutSet:
				err = t.ds.Set(m.Index, m.P)
			case engine.MutRemove:
				err = t.ds.Remove(m.Index)
			default:
				err = errors.New("stream: unknown mutation op")
			}
			if err != nil {
				break
			}
			n++
		}
	}
	if t.tracking {
		for _, m := range muts[:n] {
			switch m.Op {
			case engine.MutAdd:
				t.epochOf = append(t.epochOf, t.curEpoch)
			case engine.MutRemove:
				last := len(t.epochOf) - 1
				t.epochOf[m.Index] = t.epochOf[last]
				t.epochOf = t.epochOf[:last]
			}
		}
	}
	t.applied += uint64(n)
	t.rows.Store(int64(t.ds.Len()))
	return n, err
}

// SetJournal installs the write-ahead hook Ingest calls before applying a
// batch. Install it before ingestion starts; the hook runs under the
// table's write lock, so it must not take the table lock itself, and it
// must not keep muts past its return (Ingest reuses the buffer).
func (t *Table) SetJournal(fn func(firstSeq uint64, muts []engine.Mutation) error) {
	t.mu.Lock()
	t.journal = fn
	t.mu.Unlock()
}

// SetMetrics installs the instruments Ingest reports into.
func (t *Table) SetMetrics(m *IngestMetrics) {
	t.mu.Lock()
	t.metrics = m
	t.mu.Unlock()
}

// LastSeq returns the highest event sequence number applied.
func (t *Table) LastSeq() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.lastSeq
}

// IngestResult describes one batch Ingest numbered and applied.
type IngestResult struct {
	// First and Last are the sequence numbers of the batch's first and
	// last event.
	First, Last uint64
	// Rejected counts the batch's events refused at apply time (bad tuple
	// ids); each is skipped, so one poison event cannot wedge the stream.
	// LastErr is the last such refusal, nil if none.
	Rejected int
	LastErr  error
}

// Ingest is the serving write path for one batch of events. It validates
// and encodes them before taking any lock, so a malformed event numbers
// and applies nothing. Then, under one write-lock acquisition, it numbers
// the batch after the table's cursor, journals it write-ahead and applies
// it — the body ApplyLogged replays through, so the journal record, the
// tuples and the cursor can never disagree. When Ingest returns, the batch
// is applied and, with a journal installed, journaled. A journal failure
// applies nothing, leaves the cursor where it was and returns an error
// wrapping ErrJournalFailed.
func (t *Table) Ingest(events []Event) (IngestResult, error) {
	buf := mutPool.Get().(*[]engine.Mutation)
	defer mutPool.Put(buf)
	muts, err := EncodeEvents((*buf)[:0], t.ds.Domain(), events)
	*buf = muts
	if err != nil || len(muts) == 0 {
		return IngestResult{}, err
	}
	start := time.Now()
	t.mu.Lock()
	first := t.lastSeq + 1
	_, rejected, lastErr := t.applyLoggedLocked(first, muts)
	met := t.metrics
	t.mu.Unlock()
	journalFailed := errors.Is(lastErr, ErrJournalFailed)
	if met != nil {
		met.observe(start, len(muts), rejected, journalFailed)
	}
	if journalFailed {
		return IngestResult{}, lastErr
	}
	return IngestResult{First: first, Last: first + uint64(len(muts)) - 1, Rejected: rejected, LastErr: lastErr}, nil
}

// mutPool recycles the buffers Ingest encodes batches into, so a batch
// costs no allocation: nothing keeps a batch's mutations once it is
// applied (the journal hook copies what it writes).
var mutPool = sync.Pool{New: func() any { return new([]engine.Mutation) }}

// observe records one Ingest call: its latency, then either the applied
// batch or the journal failure that refused it.
func (m *IngestMetrics) observe(start time.Time, events, rejected int, journalFailed bool) {
	if m.ApplySeconds != nil {
		m.ApplySeconds.ObserveSince(start)
	}
	if journalFailed {
		if m.JournalFailures != nil {
			m.JournalFailures.Inc()
		}
		return
	}
	if m.Batches != nil {
		m.Batches.Inc()
	}
	if m.Events != nil {
		m.Events.Add(uint64(events))
	}
	if m.Rejected != nil {
		m.Rejected.Add(uint64(rejected))
	}
}

// ApplyLogged re-applies a batch that already carries its sequence
// numbers — WAL replay's path, through the body Ingest runs: it journals
// the batch (when a journal is installed), applies the mutations skipping
// individually rejected ones, and records the batch's last sequence number,
// all under one write-lock acquisition, so a concurrent snapshot can never
// observe the tuples without the cursor or vice versa. A journal error
// rejects the whole batch unapplied.
func (t *Table) ApplyLogged(firstSeq uint64, muts []engine.Mutation) (applied, rejected int, lastErr error) {
	if len(muts) == 0 {
		return 0, 0, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.applyLoggedLocked(firstSeq, muts)
}

// applyLoggedLocked journals muts write-ahead as the batch numbered from
// firstSeq, applies them skipping individually rejected ones (bad tuple
// ids must not wedge the stream), and advances the cursor to the batch's
// last sequence number. A journal error rejects the whole batch unapplied
// and leaves the cursor. The caller holds t.mu for writing.
func (t *Table) applyLoggedLocked(firstSeq uint64, muts []engine.Mutation) (applied, rejected int, lastErr error) {
	if t.journal != nil {
		if err := t.journal(firstSeq, muts); err != nil {
			return 0, len(muts), fmt.Errorf("%w: %w", ErrJournalFailed, err)
		}
	}
	rest := muts
	for len(rest) > 0 {
		n, err := t.applyLocked(rest)
		applied += n
		if err == nil {
			break
		}
		rejected++
		lastErr = err
		rest = rest[n+1:]
	}
	t.lastSeq = firstSeq + uint64(len(muts)) - 1
	return applied, rejected, lastErr
}

// TableState is the serializable streaming state of a table, captured
// together with the tuples by Snapshot.
type TableState struct {
	Applied  uint64  `json:"applied"`
	LastSeq  uint64  `json:"last_seq"`
	CurEpoch int32   `json:"cur_epoch"`
	Tracking bool    `json:"tracking,omitempty"`
	EpochOf  []int32 `json:"epoch_of,omitempty"`
}

// Snapshot captures the tuples and the streaming state under one read-lock
// acquisition: because Ingest journals, applies and advances the cursor
// under the corresponding write lock, the returned pair is consistent —
// the points reflect exactly the batches up to LastSeq.
func (t *Table) Snapshot() ([]domain.Point, TableState) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st := TableState{
		Applied:  t.applied,
		LastSeq:  t.lastSeq,
		CurEpoch: t.curEpoch,
		Tracking: t.tracking,
	}
	if t.tracking {
		st.EpochOf = append([]int32(nil), t.epochOf...)
	}
	return t.ds.Points(), st
}

// RestoreState overwrites the streaming bookkeeping with a snapshot's
// state. The dataset must already hold the snapshot's tuples (recovery
// rebuilds it before calling); with tracking on, the tag vector must cover
// them exactly.
func (t *Table) RestoreState(st TableState) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st.Tracking && len(st.EpochOf) != t.ds.Len() {
		return errors.New("stream: restored epoch tags do not cover the dataset")
	}
	t.applied = st.Applied
	t.lastSeq = st.LastSeq
	t.curEpoch = st.CurEpoch
	t.tracking = st.Tracking
	if st.Tracking {
		t.epochOf = append([]int32(nil), st.EpochOf...)
	} else {
		t.epochOf = nil
	}
	return nil
}

// AdvanceEpoch moves the table to the next ingestion epoch and returns it.
func (t *Table) AdvanceEpoch() int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.curEpoch++
	return t.curEpoch
}

// ExpireBefore removes every tuple ingested in an epoch before cutoff,
// returning how many were removed. It requires TrackEpochs. The backward
// scan cooperates with Dataset.Remove's swap semantics: slots above the
// cursor are already settled, so each removal swaps in a tuple that keeps
// its (already examined) tag.
func (t *Table) ExpireBefore(cutoff int32) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.tracking {
		return 0, errors.New("stream: epoch tracking is not enabled")
	}
	var muts []engine.Mutation
	for i := len(t.epochOf) - 1; i >= 0; i-- {
		if t.epochOf[i] < cutoff {
			muts = append(muts, engine.Mutation{Op: engine.MutRemove, Index: i})
		}
	}
	return t.applyLocked(muts)
}

// Reset removes every tuple — the tumbling-window close. The removals go
// through the normal batch path so bound indexes stay incremental.
func (t *Table) Reset() (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.ds.Len()
	muts := make([]engine.Mutation, n)
	for i := range muts {
		muts[i] = engine.Mutation{Op: engine.MutRemove, Index: n - 1 - i}
	}
	return t.applyLocked(muts)
}
