package blowfish

import (
	"blowfish/internal/engine"
	"blowfish/internal/stream"
)

// Streaming ingestion and continual release (internal/stream): a dataset
// becomes a StreamTable, events flow in through StreamTable.Ingest
// (sequence numbers, batched application onto the release engine's
// incremental index, done before it returns), and a Stream bound to a
// Session publishes noisy releases at each epoch close, charging a
// per-epoch epsilon schedule against the session's budget by sequential
// composition (Theorem 3.6 / 4.1) until it is exhausted:
//
//	tbl, _ := blowfish.NewStreamTable(blowfish.NewDataset(dom))
//	st, _  := sess.NewStream(tbl, blowfish.StreamConfig{Epsilon: 0.1})
//	tbl.Ingest([]blowfish.StreamEvent{{Op: "append", Row: []int{42}}})
//	rel, _ := st.CloseEpoch() // noisy histogram over everything so far

// Streaming re-exports.
type (
	// StreamTable is the synchronization point for one streamed dataset:
	// ingestion and window expiry write-lock it, releases read-lock it.
	StreamTable = stream.Table
	// StreamEvent is one append/upsert/delete mutation.
	StreamEvent = stream.Event
	// StreamIngestResult describes one batch StreamTable.Ingest applied.
	StreamIngestResult = stream.IngestResult
	// StreamIngestMetrics are the optional instruments StreamTable.Ingest
	// reports into (StreamTable.SetMetrics).
	StreamIngestMetrics = stream.IngestMetrics
	// Stream is the continual-release epoch scheduler.
	Stream = stream.Stream
	// StreamConfig binds a stream's window, epsilon schedule and releases.
	StreamConfig = stream.Config
	// StreamStatus is a snapshot of a stream's progress.
	StreamStatus = stream.Status
	// EpochRelease is the published output of one epoch close.
	EpochRelease = stream.EpochRelease
	// StreamWindow selects cumulative, tumbling or sliding windows.
	StreamWindow = stream.Window
	// StreamReleaseKind names a release published per epoch.
	StreamReleaseKind = stream.ReleaseKind
	// StreamState is a stream's serializable progress (durable restarts).
	StreamState = stream.State
	// StreamTableState is a table's serializable streaming bookkeeping.
	StreamTableState = stream.TableState
	// StreamMutation is one encoded dataset mutation, the unit the table's
	// write-ahead journal hook receives.
	StreamMutation = engine.Mutation
	// StreamMutOp selects the kind of a StreamMutation.
	StreamMutOp = engine.MutOp
)

// Mutation op kinds.
const (
	StreamMutAdd    = engine.MutAdd
	StreamMutSet    = engine.MutSet
	StreamMutRemove = engine.MutRemove
)

// Window kinds.
const (
	WindowCumulative = stream.WindowCumulative
	WindowTumbling   = stream.WindowTumbling
	WindowSliding    = stream.WindowSliding
)

// Per-epoch release kinds.
const (
	StreamHistogram  = stream.KindHistogram
	StreamCumulative = stream.KindCumulative
	StreamRange      = stream.KindRange
)

// ErrStreamStopped is returned by Stream.WaitReleases when the stream is
// shut down while a waiter is parked (server shutdown wakes long-polls).
var ErrStreamStopped = stream.ErrStopped

// ErrStreamJournalFailed marks an ingest batch or epoch close refused
// because its write-ahead record could not be appended: nothing was
// applied or published.
var ErrStreamJournalFailed = stream.ErrJournalFailed

// NewStreamTable wraps a dataset for streaming. Once streaming begins, the
// dataset must only be mutated through the table (StreamTable.Ingest).
func NewStreamTable(ds *Dataset) (*StreamTable, error) { return stream.NewTable(ds) }
