package service

// Durability: the write-ahead log and snapshot integration. Every
// state-changing operation the core acknowledges is journaled first
// (write-ahead), so a crash can lose only work no client was told
// succeeded; Checkpoint serializes the four registries — policies,
// datasets, sessions, streams — plus budget ledgers, release ordinals,
// ingest cursors and release buffers into one snapshot, after which the
// covered WAL prefix is retired.
//
// Consistency model. The snapshot records the WAL position (startLSN)
// *before* serializing any entry, and every record carries a per-entry
// replay cursor — the event sequence number for ingest batches, the epoch
// number for stream closes, the release ordinal for ad-hoc session
// releases, the resource id for creates and deletes. Replay applies a
// record only when its cursor is past the snapshot's, so a record that
// landed while the checkpoint was serializing (and is therefore both in
// the snapshot and in the replayed tail) applies exactly once. Each
// journal append shares a critical section with the state change it
// describes (the table lock for ingest, the stream's epoch lock for
// closes, the session's release lock for ad-hoc releases, the registry
// lock for creates and deletes), so an exported entry can never show a
// state change whose record is missing, or vice versa.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"blowfish"
	"blowfish/internal/wal"
)

// DurabilityConfig enables the write-ahead log. The zero value (empty Dir)
// disables persistence entirely.
type DurabilityConfig struct {
	// Dir is the data directory for WAL segments and snapshots.
	Dir string
	// Fsync is "always" (default: acked operations survive kill -9 and
	// power loss), "interval" (bounded loss, higher throughput) or "never"
	// (page cache only).
	Fsync string
	// FsyncInterval is the sync period for Fsync == "interval"; defaults
	// to 100ms.
	FsyncInterval time.Duration
	// SnapshotEvery triggers an automatic checkpoint after this many WAL
	// records; 0 means snapshots happen only at graceful shutdown and via
	// POST /v1/admin/checkpoint.
	SnapshotEvery int
}

// FormatVersion names the on-disk format of a data directory: the WAL
// records and snapshot payload below, the wal package's frames and the
// shard-<i> layout. shard.Open stamps it in the directory's FORMAT file
// and reads no other, so a change to any record or snapshot type here
// bumps it.
const FormatVersion = "1"

// WAL record kinds.
const (
	recPolicyPut byte = iota + 1
	recDatasetPut
	recSessionPut
	recStreamPut
	recDelete
	recEvents
	recRelease
	recEpoch
)

// Registry namespaces for recDelete.
const (
	nsPolicy  = "policy"
	nsDataset = "dataset"
	nsSession = "session"
	nsStream  = "stream"
)

type walPolicyPut struct {
	ID     string     `json:"id"`
	Domain []AttrSpec `json:"domain"`
	Graph  GraphSpec  `json:"graph"`
}

type walDatasetPut struct {
	ID     string           `json:"id"`
	Domain []AttrSpec       `json:"domain"`
	Points []blowfish.Point `json:"points"`
}

type walSessionPut struct {
	ID       string  `json:"id"`
	PolicyID string  `json:"policy_id"`
	Budget   float64 `json:"budget"`
}

type walStreamPut struct {
	ID  string              `json:"id"`
	Req CreateStreamRequest `json:"req"`
}

type walDelete struct {
	NS string `json:"ns"`
	ID string `json:"id"`
}

// walMut is one dataset mutation in an ingest record, compactly keyed.
type walMut struct {
	O uint8          `json:"o"`
	I int            `json:"i,omitempty"`
	P blowfish.Point `json:"p,omitempty"`
}

type walEvents struct {
	DatasetID string   `json:"dataset_id"`
	First     uint64   `json:"first"`
	Muts      []walMut `json:"muts"`
}

// walRelease journals one ad-hoc release under the ordinal it took from
// its session.
type walRelease struct {
	SessionID string  `json:"session_id"`
	Ordinal   uint64  `json:"ordinal"`
	Kind      string  `json:"kind"` // histogram, cumulative, range
	DatasetID string  `json:"dataset_id"`
	Epsilon   float64 `json:"epsilon"`
}

type walEpoch struct {
	StreamID string `json:"stream_id"`
	Epoch    int    `json:"epoch"`
}

// Snapshot payload: the whole core, JSON-encoded inside a wal snapshot
// frame. Each entry is the put record that creates it (the same JSON keys
// as its WAL record), plus the state it has reached since.
type snapServer struct {
	NextID   [4]uint64      `json:"next_id"`
	Policies []walPolicyPut `json:"policies,omitempty"`
	Datasets []snapDataset  `json:"datasets,omitempty"`
	Sessions []snapSession  `json:"sessions,omitempty"`
	Streams  []snapStream   `json:"streams,omitempty"`
}

type snapDataset struct {
	walDatasetPut
	Table blowfish.StreamTableState `json:"table"`
}

type snapSession struct {
	walSessionPut
	State blowfish.SessionState `json:"state"`
}

type snapStream struct {
	walStreamPut
	State   blowfish.StreamState  `json:"state"`
	Session blowfish.SessionState `json:"session"`
}

// persistence owns the WAL and the checkpoint machinery.
type persistence struct {
	log *wal.Log
	cfg DurabilityConfig

	// cpMu single-flights checkpoints.
	cpMu sync.Mutex

	// sinceSnap counts records appended since the last checkpoint; the
	// auto-checkpoint loop fires when it passes SnapshotEvery.
	countMu   sync.Mutex
	sinceSnap int

	trigger  chan struct{}
	quit     chan struct{}
	loopDone chan struct{}
	stopOnce sync.Once
}

func newPersistence(log *wal.Log, cfg DurabilityConfig) *persistence {
	return &persistence{
		log:      log,
		cfg:      cfg,
		trigger:  make(chan struct{}, 1),
		quit:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
}

// bump counts one appended record, nudging the auto-checkpoint loop when
// the threshold passes.
func (p *persistence) bump() {
	if p.cfg.SnapshotEvery <= 0 {
		return
	}
	p.countMu.Lock()
	p.sinceSnap++
	fire := p.sinceSnap >= p.cfg.SnapshotEvery
	p.countMu.Unlock()
	if fire {
		select {
		case p.trigger <- struct{}{}:
		default:
		}
	}
}

func (p *persistence) resetCount() {
	p.countMu.Lock()
	p.sinceSnap = 0
	p.countMu.Unlock()
}

// autoCheckpointLoop runs checkpoints when the record counter passes the
// configured threshold. Errors are swallowed: a failed snapshot costs
// recovery time, never durability (the WAL keeps everything).
func (c *Core) autoCheckpointLoop() {
	p := c.persist
	defer close(p.loopDone)
	for {
		select {
		case <-p.quit:
			return
		case <-p.trigger:
			_, _ = c.Checkpoint()
		}
	}
}

func (p *persistence) stopAutoCheckpoint() {
	p.stopOnce.Do(func() { close(p.quit) })
	<-p.loopDone
}

// journal appends one record, honoring the fsync policy (wal.Append syncs
// under fsync=always).
func (c *Core) journal(kind byte, v any) error {
	if c.persist == nil {
		return nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("service: encoding wal record: %w", err)
	}
	if _, err := c.persist.log.Append(kind, data); err != nil {
		return err
	}
	c.persist.bump()
	return nil
}

// journalDelete journals a registry removal.
func (c *Core) journalDelete(ns, id string) error {
	return c.journal(recDelete, walDelete{NS: ns, ID: id})
}

// lockForRelease enters the session's durable release critical section; the
// returned unlock is nil on in-memory cores (nothing to serialize).
func (c *Core) lockForRelease(e *sessionEntry) func() {
	if c.persist == nil {
		return nil
	}
	e.relMu.Lock()
	return e.relMu.Unlock
}

// journalRelease records a successful ad-hoc release under the ordinal it
// took: call with the session's release lock held (lockForRelease). A
// journal error is reported to the client as a failed release; the
// in-memory charge stands, so privacy loss is never under-counted.
func (c *Core) journalRelease(e *sessionEntry, kind, datasetID string, eps float64) error {
	if c.persist == nil {
		return nil
	}
	return c.journal(recRelease, walRelease{
		SessionID: e.id,
		Ordinal:   e.sess.Ordinal(),
		Kind:      kind,
		DatasetID: datasetID,
		Epsilon:   eps,
	})
}

// eventJournal is the table's write-ahead hook: it runs under the table
// lock, in the same critical section that applies the batch.
func (c *Core) eventJournal(datasetID string) func(uint64, []blowfish.StreamMutation) error {
	return func(firstSeq uint64, muts []blowfish.StreamMutation) error {
		rec := walEvents{DatasetID: datasetID, First: firstSeq, Muts: make([]walMut, len(muts))}
		for i, m := range muts {
			rec.Muts[i] = walMut{O: uint8(m.Op), I: m.Index, P: m.P}
		}
		return c.journal(recEvents, rec)
	}
}

// epochJournal is the stream's write-ahead hook: it runs under the
// stream's epoch lock, after the epoch's releases are charged and before
// they publish.
func (c *Core) epochJournal(streamID string) func(int) error {
	return func(epoch int) error {
		return c.journal(recEpoch, walEpoch{StreamID: streamID, Epoch: epoch})
	}
}

// CheckpointStats reports a completed checkpoint.
type CheckpointStats struct {
	LSN        uint64 `json:"lsn"`
	Bytes      int    `json:"bytes"`
	DurationMS int64  `json:"duration_ms"`
	Path       string `json:"path"`
}

// Checkpoint snapshots the whole core and retires the covered WAL
// prefix. Safe to call at any time on a durable core; checkpoints
// single-flight. On an in-memory core it reports ErrNotDurable. See the
// consistency model at the top of this file.
func (c *Core) Checkpoint() (CheckpointStats, error) {
	p := c.persist
	if p == nil {
		return CheckpointStats{}, ErrNotDurable
	}
	p.cpMu.Lock()
	defer p.cpMu.Unlock()
	start := time.Now()
	startLSN := p.log.LastLSN()

	payload, err := json.Marshal(c.buildSnapshot())
	if err != nil {
		return CheckpointStats{}, fmt.Errorf("service: encoding snapshot: %w", err)
	}
	path, err := wal.WriteSnapshot(p.cfg.Dir, startLSN, payload)
	if err != nil {
		return CheckpointStats{}, err
	}
	if err := p.log.Checkpoint(startLSN); err != nil {
		return CheckpointStats{}, err
	}
	p.resetCount()
	c.metrics.snapshotSeconds.ObserveSince(start)
	c.metrics.snapshotBytes.Set(int64(len(payload)))
	c.metrics.checkpoints.Inc()
	c.logger.Info("checkpoint complete",
		"lsn", startLSN, "bytes", len(payload), "elapsed", time.Since(start))
	return CheckpointStats{
		LSN:        startLSN,
		Bytes:      len(payload),
		DurationMS: time.Since(start).Milliseconds(),
		Path:       path,
	}, nil
}

// buildSnapshot serializes every registry. Each entry is exported under
// its own consistency lock; the registry itself is copied under the
// core's read lock first.
//
//lint:allow truthflow snapshots journal the raw dataset tuples by design: the durable state IS the data, and the data directory is server-private, never a release surface
func (c *Core) buildSnapshot() *snapServer {
	c.mu.RLock()
	snap := &snapServer{NextID: c.nextID}
	policies := make([]*policyEntry, 0, len(c.policies))
	for _, e := range c.policies {
		policies = append(policies, e)
	}
	datasets := make([]*datasetEntry, 0, len(c.datasets))
	for _, e := range c.datasets {
		datasets = append(datasets, e)
	}
	sessions := make([]*sessionEntry, 0, len(c.sessions))
	for _, e := range c.sessions {
		sessions = append(sessions, e)
	}
	streams := make([]*streamEntry, 0, len(c.streams))
	for _, e := range c.streams {
		streams = append(streams, e)
	}
	c.mu.RUnlock()
	sort.Slice(policies, func(i, j int) bool { return byID(policies[i].id, policies[j].id) < 0 })
	sort.Slice(datasets, func(i, j int) bool { return byID(datasets[i].id, datasets[j].id) < 0 })
	sort.Slice(sessions, func(i, j int) bool { return byID(sessions[i].id, sessions[j].id) < 0 })
	sort.Slice(streams, func(i, j int) bool { return byID(streams[i].id, streams[j].id) < 0 })

	for _, e := range policies {
		snap.Policies = append(snap.Policies, walPolicyPut{ID: e.id, Domain: e.attrs, Graph: e.graph})
	}
	for _, e := range datasets {
		pts, st := e.tbl.Snapshot()
		snap.Datasets = append(snap.Datasets, snapDataset{walDatasetPut: walDatasetPut{ID: e.id, Domain: e.attrs, Points: pts}, Table: st})
	}
	for _, e := range sessions {
		e.relMu.Lock()
		st := e.sess.ExportState()
		e.relMu.Unlock()
		snap.Sessions = append(snap.Sessions, snapSession{
			walSessionPut: walSessionPut{ID: e.id, PolicyID: e.policyID, Budget: e.sess.Accountant().Budget()},
			State:         st,
		})
	}
	for _, e := range streams {
		var sessState blowfish.SessionState
		// Stream.Snapshot runs the export under the epoch lock, so the
		// stream cursor and the session's ledger and ordinal are captured
		// between closes, never mid-close.
		stState := e.st.Snapshot(func() { sessState = e.sess.ExportState() })
		snap.Streams = append(snap.Streams, snapStream{
			walStreamPut: walStreamPut{ID: e.id, Req: e.req},
			State:        stState, Session: sessState,
		})
	}
	return snap
}

// bumpCounter advances a registry id counter past a replayed id, so ids
// minted after recovery never collide with pre-crash ones.
func bumpCounter(ctr *uint64, id string) {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return
	}
	n, err := strconv.ParseUint(id[i+1:], 10, 64)
	if err != nil {
		return
	}
	if n > *ctr {
		*ctr = n
	}
}
