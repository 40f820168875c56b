// Package service is the transport-agnostic core of the blowfish
// policy-release server: the four resource registries (policies,
// datasets, sessions, streams), the write-ahead journal and snapshot
// machinery, crash recovery, and the resource lifecycle — everything
// internal/server's HTTP handlers used to own directly, minus HTTP.
//
// A Core speaks requests and responses (the wire types in wire.go) and
// reports failures as *Error values carrying the structured error codes
// clients branch on. It always sits behind the shard router
// (internal/shard), which mints every resource id and places each
// resource on one core; the HTTP front (internal/server) decodes,
// delegates to the router and encodes. A core never mints an id of its
// own: Apply* creates a resource under the id the router assigned.
//
// Every policy is compiled once at registration (blowfish.Compile): its
// sensitivities, partition block index and range-tree layout are reused by
// every session, and dataset count vectors are indexed on first release and
// shared across the policy's sessions, so repeated releases never rescan
// the uploaded rows.
//
// The core is safe under full concurrency: registries are guarded by a
// read-write mutex, every session and stream is keyed (each release derives
// its noise from the key and its ordinal, taking no noise lock), and budget
// charges are atomic: parallel release requests against one session can
// never overspend its ε (sequential composition, Theorem 4.1).
package service

import (
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blowfish"
)

// Config tunes a Core. The zero value is usable.
type Config struct {
	// Seed is the base of every noise key: a session's or stream's key is
	// noise.ResourceKey(Seed, id). Ids are never reused, so no two
	// resources share a key, and servers with the same Seed and requests
	// publish identical releases at any shard count. A data directory
	// keeps the Seed it was written with (shard.Open refuses another).
	Seed int64
	// SessionTTL expires sessions idle for longer than this; zero means
	// sessions never expire.
	SessionTTL time.Duration
	// Now overrides the clock (tests); defaults to time.Now.
	Now func() time.Time
	// MaxLongPollWait caps the wait_ms long-poll parameter of the stream
	// releases endpoint; defaults to 30s.
	MaxLongPollWait time.Duration
	// Durability enables the write-ahead log and snapshots. The zero value
	// (empty Dir) keeps the core fully in-memory — the zero-config
	// default every test and benchmark runs on.
	Durability DurabilityConfig
	// Logger receives structured events (recovery phases, epoch closes,
	// shutdown drains). Nil discards them.
	Logger *slog.Logger
	// CloseDrainTimeout bounds how long Close waits for stream tickers to
	// exit after signaling them; defaults to 10s.
	// Goroutines still alive at the deadline are logged and counted in the
	// blowfish_close_leaked_goroutines gauge instead of blocking shutdown
	// forever.
	CloseDrainTimeout time.Duration
	// ShardLabel, when non-empty, is stamped onto every metric family of
	// this core's registry as a constant shard="<label>" label, so the
	// merged exposition keeps per-shard series distinct. The shard router
	// sets it to the core's index at every shard count, one included.
	ShardLabel string
}

const (
	defaultMaxLongPollWait   = 30 * time.Second
	defaultCloseDrainTimeout = 10 * time.Second
)

// Core is the in-memory policy-release service. Create with Open, which
// recovers a durable core from disk when a data directory is configured.
type Core struct {
	cfg     Config
	metrics *coreMetrics
	logger  *slog.Logger

	mu       sync.RWMutex
	policies map[string]*policyEntry
	datasets map[string]*datasetEntry
	sessions map[string]*sessionEntry
	streams  map[string]*streamEntry
	// nextID holds, per namespace (policy, dataset, session, stream), the
	// highest id number this core has ever applied. It is snapshotted and
	// raised again by replay, so it outlives the ids' deletion.
	nextID [4]uint64
	closed bool

	// persist is nil for in-memory cores; when set, every state-changing
	// operation is journaled to the write-ahead log before it is
	// acknowledged, and Checkpoint snapshots the registries. See persist.go
	// and recover.go.
	persist *persistence
}

type policyEntry struct {
	id    string
	pol   *blowfish.Policy
	attrs []AttrSpec
	// graph is the wire-level secret-graph spec the policy was registered
	// with, kept so snapshots and WAL replay can rebuild the compiled plan
	// from the client's own declaration.
	graph GraphSpec
	// cp is the policy compiled into the release engine's plan at
	// registration: every session minted from it shares the precomputed
	// sensitivities, tree layouts and dataset indexes.
	cp *blowfish.CompiledPolicy
	// part is non-nil for partition policies; histogram releases over such
	// policies answer the block histogram h_P.
	part blowfish.Partition
	// histSens is S(h, P), computed once at registration.
	histSens float64
	// edges and components describe the compiled structure of explicit
	// secret graphs (zero for implicit kinds).
	edges, components int
}

type datasetEntry struct {
	id    string
	ds    *blowfish.Dataset
	attrs []AttrSpec
	// tbl coordinates streaming writers (event batches, window expiry)
	// against release readers and is the dataset's event log: every
	// release over ds runs under its read lock, every mutation under its
	// write lock.
	tbl *blowfish.StreamTable
}

type streamEntry struct {
	id        string
	policyID  string
	datasetID string
	pol       *policyEntry
	de        *datasetEntry
	// sess is the dedicated session backing the stream's budget schedule;
	// its accountant is what epoch closes charge.
	sess *blowfish.Session
	st   *blowfish.Stream
	// req is the creation request, which snapshots and WAL replay rebuild
	// the stream from.
	req CreateStreamRequest
}

type sessionEntry struct {
	id       string
	policyID string
	// pol is the policy entry captured at session creation: releases use
	// this reference rather than re-resolving policyID, so a policy
	// deletion racing session creation can never change which mechanism a
	// live session's releases go through.
	pol  *policyEntry
	sess *blowfish.Session
	// lastUsed is the unix-nano timestamp of the latest access, advanced
	// atomically so reads can stay under the core's read lock.
	lastUsed atomic.Int64
	// relMu serializes this session's releases on the durable path: a
	// release and its WAL record form one critical section, so the record
	// carries the release's ordinal and a checkpoint (which takes the same
	// lock to export the ledger and ordinal) never sees one without the
	// other. In-memory cores never take it.
	relMu sync.Mutex
}

// newCore creates an in-memory Core; Open recovers durable state into it.
func newCore(cfg Config) *Core {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.MaxLongPollWait <= 0 {
		cfg.MaxLongPollWait = defaultMaxLongPollWait
	}
	if cfg.CloseDrainTimeout <= 0 {
		cfg.CloseDrainTimeout = defaultCloseDrainTimeout
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	c := &Core{
		cfg:      cfg,
		metrics:  newCoreMetrics(cfg.ShardLabel),
		logger:   logger,
		policies: make(map[string]*policyEntry),
		datasets: make(map[string]*datasetEntry),
		sessions: make(map[string]*sessionEntry),
		streams:  make(map[string]*streamEntry),
	}
	c.registerCollectors()
	return c
}

// IDCounters returns, per namespace (policy, dataset, session, stream),
// the highest id number this core has ever applied, deleted ids included.
// The shard router starts its counters at the maximum over its cores, so
// it never mints an id a client may still hold.
func (c *Core) IDCounters() [4]uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nextID
}

// ExpireSessions drops sessions idle past the configured TTL and returns
// how many were removed. Call it periodically (cmd/blowfish-serve runs a
// sweeper goroutine); a zero TTL makes it a no-op.
func (c *Core) ExpireSessions() int {
	if c.cfg.SessionTTL <= 0 {
		return 0
	}
	cutoff := c.cfg.Now().Add(-c.cfg.SessionTTL).UnixNano()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for id, e := range c.sessions {
		if e.lastUsed.Load() < cutoff {
			// Best-effort journal: if the WAL is down (failures are
			// sticky), expire in memory anyway — holding every idle
			// session forever would leak without bound. A restart may
			// resurrect the session from the snapshot, where the next
			// sweep expires it again; its ledger survives either way, so
			// budget accounting is unaffected.
			_ = c.journalDelete(nsSession, id)
			delete(c.sessions, id)
			n++
		}
	}
	return n
}

// SessionCount returns the number of live sessions (diagnostics).
func (c *Core) SessionCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.sessions)
}

// StreamCount returns the number of live streams (diagnostics).
func (c *Core) StreamCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.streams)
}

// Close stops every background goroutine the core owns: the stream epoch
// tickers. On a durable core the shutdown then checkpoints: every
// acknowledged event batch was journaled and applied before its ack, so
// the final snapshot holds it — a graceful shutdown loses nothing, and the
// next boot recovers from the snapshot alone with no WAL tail to replay. A
// failed final snapshot is safe (the WAL still holds every record;
// recovery just replays more). It is idempotent; creates and event
// batches after Close are refused. In-flight requests are the front's to
// drain (http.Server.Shutdown does).
func (c *Core) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	streams := make([]*streamEntry, 0, len(c.streams))
	for _, e := range c.streams {
		streams = append(streams, e)
	}
	datasets := len(c.datasets)
	c.mu.Unlock()
	// Stop tickers in ID order, so a drain timeout names the same stream
	// on every run.
	sort.Slice(streams, func(i, j int) bool { return byID(streams[i].id, streams[j].id) < 0 })
	start := time.Now()
	// One drain deadline covers the whole shutdown: a wedged ticker is
	// logged and counted instead of blocking Close forever.
	expired := make(chan struct{})
	watchdog := time.AfterFunc(c.cfg.CloseDrainTimeout, func() { close(expired) })
	defer watchdog.Stop()
	leaked := 0
	waitOne := func(what, id string, done <-chan struct{}) {
		select {
		case <-done:
			return
		default:
		}
		select {
		case <-done:
		case <-expired:
			leaked++
			c.logger.Error("close drain timed out; goroutine still running",
				"what", what, "id", id, "timeout", c.cfg.CloseDrainTimeout)
		}
	}
	// Signal every ticker at once, then wait for each under the deadline.
	stops := make([]<-chan struct{}, len(streams))
	for i, e := range streams {
		stops[i] = e.st.Shutdown()
	}
	for i, e := range streams {
		waitOne("stream ticker", e.id, stops[i])
	}
	c.metrics.closeLeaked.Set(int64(leaked))
	if c.persist != nil {
		c.persist.stopAutoCheckpoint()
		_, _ = c.Checkpoint() // best-effort: the WAL remains authoritative
		_ = c.persist.log.Close()
	}
	if leaked > 0 {
		c.logger.Error("core close left goroutines running",
			"leaked", leaked, "elapsed", time.Since(start))
		return
	}
	c.logger.Info("core closed",
		"streams", len(streams), "datasets", datasets, "elapsed", time.Since(start))
}

// CloseLeaked reports how many stream-ticker goroutines the last Close
// abandoned at its drain deadline (0 after a clean close).
// Tests and the leak watchdog assert on it.
func (c *Core) CloseLeaked() int {
	return int(c.metrics.closeLeaked.Value())
}

// refuseClosed reports resource creation on a closed (shutting down) core
// as the structured shutdown error.
func (c *Core) refuseClosed() error {
	c.mu.RLock()
	closed := c.closed
	c.mu.RUnlock()
	if closed {
		return &Error{Code: CodeBadRequest, Message: "server is shutting down"}
	}
	return nil
}

// byID orders resource ids of one namespace ("pol-2" < "pol-10") for the
// list endpoints: shorter ids first, then lexicographic — numeric order for
// the core's prefix-counter ids.
func byID(a, b string) int {
	if len(a) != len(b) {
		return len(a) - len(b)
	}
	return strings.Compare(a, b)
}

// CompareIDs exposes the id ordering to fronts that merge lists from
// several cores (the shard router's scatter-gather list endpoints).
func CompareIDs(a, b string) int { return byID(a, b) }

// snapshotSorted copies one registry under the core's read lock and
// orders the entries by id — the shared skeleton of every list endpoint.
func snapshotSorted[E any](c *Core, m map[string]E, id func(E) string) []E {
	c.mu.RLock()
	out := make([]E, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return byID(id(out[i]), id(out[j])) < 0 })
	return out
}

// getSession looks a session up and refreshes its idle timer.
func (c *Core) getSession(id string) (*sessionEntry, bool) {
	c.mu.RLock()
	e, ok := c.sessions[id]
	c.mu.RUnlock()
	if !ok {
		return nil, false
	}
	e.lastUsed.Store(c.cfg.Now().UnixNano())
	return e, true
}

func (c *Core) getPolicy(id string) (*policyEntry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.policies[id]
	return e, ok
}

func (c *Core) getDataset(id string) (*datasetEntry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.datasets[id]
	return e, ok
}

func (c *Core) getStream(id string) (*streamEntry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.streams[id]
	return e, ok
}

// buildDomain validates an AttrSpec list into a Domain.
func buildDomain(attrs []AttrSpec) (*blowfish.Domain, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("domain needs at least one attribute")
	}
	out := make([]blowfish.Attribute, len(attrs))
	for i, a := range attrs {
		out[i] = blowfish.Attribute{Name: a.Name, Size: a.Size}
	}
	return blowfish.NewDomain(out...)
}

// buildGraph constructs the secret graph named by spec, returning the
// partition alongside for kind "partition".
func buildGraph(dom *blowfish.Domain, spec GraphSpec) (blowfish.SecretGraph, blowfish.Partition, error) {
	return blowfish.BuildGraph(dom, spec)
}
