package service

// Recovery: boot a durable core from its data directory. The latest
// valid snapshot is loaded first (registries, budget ledgers, release
// ordinals, ingest cursors, release buffers), then the WAL tail is
// replayed in LSN order. An ingest batch re-applies through the table; an
// epoch close re-runs Stream.CloseEpoch, since clients poll the rebuilt
// buffer, and its noise comes from the stream's key and restored ordinal.
// An ad-hoc release, whose values were already delivered, is not run
// again: its session is charged the release's ledger entry and its ordinal
// rises to the record's. The accountants then refuse exactly what the
// pre-crash core would have.

import (
	"encoding/json"
	"fmt"
	"time"

	"blowfish"
	"blowfish/internal/noise"
	"blowfish/internal/wal"
)

// Open creates a Core, recovering durable state from
// Config.Durability.Dir when one is configured. With an empty Dir it
// returns the zero-config in-memory core.
func Open(cfg Config) (*Core, error) {
	c := newCore(cfg)
	d := cfg.Durability
	if d.Dir == "" {
		return c, nil
	}
	if d.Fsync == "" {
		d.Fsync = "always"
	}
	fsync, err := wal.ParseFsyncPolicy(d.Fsync)
	if err != nil {
		return nil, err
	}
	recoverStart := time.Now()
	c.logger.Info("recovery started", "dir", d.Dir, "fsync", d.Fsync)
	log, err := wal.Open(d.Dir, wal.Options{
		Fsync: fsync, FsyncInterval: d.FsyncInterval, Metrics: c.metrics.wal,
	})
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Core, error) {
		log.Close()
		return nil, err
	}
	snapLSN, payload, err := wal.LatestSnapshot(d.Dir)
	if err != nil {
		return fail(err)
	}
	if payload != nil {
		phase := time.Now()
		if err := c.loadSnapshot(payload); err != nil {
			return fail(fmt.Errorf("service: loading snapshot: %w", err))
		}
		c.logger.Info("snapshot loaded", "lsn", snapLSN,
			"bytes", len(payload), "elapsed", time.Since(phase))
	}
	phase := time.Now()
	if err := log.Replay(snapLSN, c.replayRecord); err != nil {
		return fail(fmt.Errorf("service: replaying wal: %w", err))
	}
	c.logger.Info("wal replayed", "from_lsn", snapLSN, "elapsed", time.Since(phase))
	c.persist = newPersistence(log, d)
	c.finishRecovery()
	go c.autoCheckpointLoop()
	c.logger.Info("recovery complete",
		"policies", len(c.policies), "datasets", len(c.datasets),
		"sessions", len(c.sessions), "streams", len(c.streams),
		"elapsed", time.Since(recoverStart))
	return c, nil
}

// finishRecovery attaches the write-ahead hooks to every recovered entry
// and starts the stream tickers. It runs after replay so replayed
// operations never re-journal themselves.
func (c *Core) finishRecovery() {
	for _, e := range c.datasets {
		e.tbl.SetJournal(c.eventJournal(e.id))
	}
	for _, e := range c.streams {
		e.st.SetJournal(c.epochJournal(e.id))
	}
	for _, e := range c.streams {
		e.st.Start()
	}
}

// loadSnapshot rebuilds the registries from a checkpoint payload: each
// entry is applied as its put record, then restored to the state it had
// reached.
func (c *Core) loadSnapshot(payload []byte) error {
	snap, err := decodeSnapshot(payload)
	if err != nil {
		return err
	}
	for _, p := range snap.Policies {
		if err := c.applyPolicyPut(p); err != nil {
			return err
		}
	}
	for _, d := range snap.Datasets {
		de, err := c.applyDatasetPut(d.walDatasetPut)
		if err != nil {
			return err
		}
		if err := de.tbl.RestoreState(d.Table); err != nil {
			return fmt.Errorf("dataset %s: %w", d.ID, err)
		}
	}
	for _, sn := range snap.Sessions {
		se, err := c.applySessionPut(sn.walSessionPut)
		if err != nil {
			return err
		}
		if err := se.sess.RestoreState(sn.State); err != nil {
			return fmt.Errorf("session %s: %w", sn.ID, err)
		}
	}
	for _, sn := range snap.Streams {
		e, err := c.applyStreamPut(sn.walStreamPut)
		if err != nil {
			return err
		}
		if err := e.st.RestoreState(sn.State); err != nil {
			return fmt.Errorf("stream %s: %w", sn.ID, err)
		}
		if err := e.sess.RestoreState(sn.Session); err != nil {
			return fmt.Errorf("stream %s: %w", sn.ID, err)
		}
	}
	c.nextID = snap.NextID
	return nil
}

// replayRecord applies one WAL record. Every record carries a replay
// cursor (id, sequence number, epoch or ordinal) compared against the
// recovered state, so records the snapshot already reflects apply exactly
// zero times.
func (c *Core) replayRecord(rec wal.Record) error {
	wrap := func(err error) error {
		if err != nil {
			return fmt.Errorf("lsn %d: %w", rec.LSN, err)
		}
		return nil
	}
	switch rec.Kind {
	case recPolicyPut:
		var r walPolicyPut
		if err := decodeRecord(rec.Data, &r); err != nil {
			return wrap(err)
		}
		return wrap(c.applyPolicyPut(r))
	case recDatasetPut:
		var r walDatasetPut
		if err := decodeRecord(rec.Data, &r); err != nil {
			return wrap(err)
		}
		_, err := c.applyDatasetPut(r)
		return wrap(err)
	case recSessionPut:
		var r walSessionPut
		if err := decodeRecord(rec.Data, &r); err != nil {
			return wrap(err)
		}
		_, err := c.applySessionPut(r)
		return wrap(err)
	case recStreamPut:
		var r walStreamPut
		if err := decodeRecord(rec.Data, &r); err != nil {
			return wrap(err)
		}
		_, err := c.applyStreamPut(r)
		return wrap(err)
	case recDelete:
		var r walDelete
		if err := decodeRecord(rec.Data, &r); err != nil {
			return wrap(err)
		}
		c.replayDelete(r)
	case recEvents:
		var r walEvents
		if err := decodeRecord(rec.Data, &r); err != nil {
			return wrap(err)
		}
		return wrap(c.replayEvents(r))
	case recRelease:
		var r walRelease
		if err := decodeRecord(rec.Data, &r); err != nil {
			return wrap(err)
		}
		// The release never runs again, only charges its session, so a
		// record whose dataset's delete raced ahead of it charges too. A
		// missing session was deleted after the release.
		if e, ok := c.sessions[r.SessionID]; ok {
			return wrap(e.sess.Replay(blowfish.StreamReleaseKind(r.Kind), r.Epsilon, r.Ordinal))
		}
	case recEpoch:
		var r walEpoch
		if err := decodeRecord(rec.Data, &r); err != nil {
			return wrap(err)
		}
		return wrap(c.replayEpoch(r))
	default:
		return wrap(fmt.Errorf("unknown wal record kind %d", rec.Kind))
	}
	return nil
}

// The apply functions register one recovered resource from its put record,
// for WAL replay and snapshot load alike. Each raises the namespace's id
// counter past the record, and skips an id that is
// already registered: a create journaled while a checkpoint serialized is
// both in the snapshot and in the replayed tail. They return the entry
// under the record's id, so the snapshot path can restore its state.

// applyPolicyPut registers a recovered policy.
//
//lint:allow waljournal recovery registers resources read FROM durable state (WAL replay and snapshot load); journaling them again would double every record on each recovery
func (c *Core) applyPolicyPut(r walPolicyPut) error {
	bumpCounter(&c.nextID[0], r.ID)
	if _, ok := c.policies[r.ID]; ok {
		return nil
	}
	pe, err := buildPolicyEntry(r.Domain, r.Graph)
	if err != nil {
		return fmt.Errorf("policy %s: %w", r.ID, err)
	}
	pe.id = r.ID
	c.policies[pe.id] = pe
	return nil
}

// applyDatasetPut registers a recovered dataset.
//
//lint:allow waljournal recovery registers resources read FROM durable state (WAL replay and snapshot load); journaling them again would double every record on each recovery
func (c *Core) applyDatasetPut(r walDatasetPut) (*datasetEntry, error) {
	bumpCounter(&c.nextID[1], r.ID)
	if e, ok := c.datasets[r.ID]; ok {
		return e, nil
	}
	de, err := c.buildDatasetEntry(r.Domain, r.Points)
	if err != nil {
		return nil, fmt.Errorf("dataset %s: %w", r.ID, err)
	}
	de.id = r.ID
	c.datasets[de.id] = de
	return de, nil
}

// applySessionPut registers a recovered session.
//
//lint:allow waljournal recovery registers resources read FROM durable state (WAL replay and snapshot load); journaling them again would double every record on each recovery
func (c *Core) applySessionPut(r walSessionPut) (*sessionEntry, error) {
	bumpCounter(&c.nextID[2], r.ID)
	if e, ok := c.sessions[r.ID]; ok {
		return e, nil
	}
	pe, ok := c.policies[r.PolicyID]
	if !ok {
		return nil, fmt.Errorf("session %s references unknown policy %s", r.ID, r.PolicyID)
	}
	se, err := c.buildSessionEntry(pe, r.Budget, r.ID)
	if err != nil {
		return nil, fmt.Errorf("session %s: %w", r.ID, err)
	}
	c.sessions[se.id] = se
	return se, nil
}

// applyStreamPut registers a recovered stream; it is not started until
// the whole recovery has run (finishRecovery).
//
//lint:allow waljournal recovery registers resources read FROM durable state (WAL replay and snapshot load); journaling them again would double every record on each recovery
func (c *Core) applyStreamPut(r walStreamPut) (*streamEntry, error) {
	bumpCounter(&c.nextID[3], r.ID)
	if e, ok := c.streams[r.ID]; ok {
		return e, nil
	}
	e, err := c.buildStreamEntryLocked(r.Req, r.ID)
	if err != nil {
		return nil, fmt.Errorf("stream %s: %w", r.ID, err)
	}
	c.streams[e.id] = e
	return e, nil
}

// replayDelete applies a WAL delete record to the matching registry.
//
//lint:allow waljournal replay applies deletes read FROM the journal; the delete record being applied is already durable
func (c *Core) replayDelete(r walDelete) {
	switch r.NS {
	case nsPolicy:
		delete(c.policies, r.ID)
	case nsDataset:
		e, ok := c.datasets[r.ID]
		delete(c.datasets, r.ID)
		if ok {
			for _, pe := range c.policies {
				pe.cp.Forget(e.ds)
			}
		}
	case nsSession:
		delete(c.sessions, r.ID)
	case nsStream:
		e, ok := c.streams[r.ID]
		delete(c.streams, r.ID)
		if ok {
			e.st.Stop()
			e.st.Unbind()
		}
	}
}

// replayEvents re-applies an ingest batch, skipping the prefix the
// snapshot's sequence cursor already covers. A batch for a dataset that
// is gone is dropped: an events request that resolved the dataset before
// a concurrent delete journaled after the delete record — the end state
// has no dataset either way.
func (c *Core) replayEvents(r walEvents) error {
	e, ok := c.datasets[r.DatasetID]
	if !ok {
		return nil
	}
	last := r.First + uint64(len(r.Muts)) - 1
	cursor := e.tbl.LastSeq()
	if last <= cursor {
		return nil // fully covered by the snapshot
	}
	muts := r.Muts
	first := r.First
	if first <= cursor {
		muts = muts[cursor-first+1:]
		first = cursor + 1
	}
	batch := make([]blowfish.StreamMutation, len(muts))
	for i, m := range muts {
		batch[i] = blowfish.StreamMutation{Op: blowfish.StreamMutOp(m.O), Index: m.I, P: m.P}
	}
	// Rejections replay identically (the dataset is in the same state the
	// live batch saw), so a poison event is skipped now as it was then.
	_, _, _ = e.tbl.ApplyLogged(first, batch)
	return nil
}

// replayEpoch re-executes a stream's epoch close. Closes the snapshot
// already reflects are skipped; a gap means the directory is inconsistent
// and recovery fails loudly rather than silently diverging.
func (c *Core) replayEpoch(r walEpoch) error {
	e, ok := c.streams[r.StreamID]
	if !ok {
		// The stream's delete record raced ahead of this close. Its
		// accountant died with it (streams have dedicated sessions), so
		// there is no surviving state to reconstruct.
		return nil
	}
	cur := e.st.ExportState().Epoch
	if r.Epoch < cur {
		return nil
	}
	if r.Epoch > cur {
		return fmt.Errorf("stream %s: wal closes epoch %d but recovered state is at epoch %d", r.StreamID, r.Epoch, cur)
	}
	if _, err := e.st.CloseEpoch(); err != nil {
		return fmt.Errorf("re-executing epoch %d close on stream %s: %w", r.Epoch, r.StreamID, err)
	}
	return nil
}

// --- shared entry builders -------------------------------------------------
//
// The front-end create paths and the recovery paths construct entries
// through the same builders, so a replayed create can never diverge from
// the original.

// buildPolicyEntry compiles a policy from its wire-level declaration.
func buildPolicyEntry(attrs []AttrSpec, graph GraphSpec) (*policyEntry, error) {
	dom, err := buildDomain(attrs)
	if err != nil {
		return nil, err
	}
	g, part, err := buildGraph(dom, graph)
	if err != nil {
		return nil, err
	}
	pol := blowfish.NewPolicy(g)
	cp, err := blowfish.Compile(pol)
	if err != nil {
		return nil, err
	}
	sens, err := cp.HistogramSensitivity()
	if err != nil {
		return nil, err
	}
	edges, components, _ := cp.ExplicitStats()
	return &policyEntry{
		pol:        pol,
		cp:         cp,
		attrs:      append([]AttrSpec(nil), attrs...),
		graph:      graph,
		part:       part,
		histSens:   sens,
		edges:      edges,
		components: components,
	}, nil
}

// buildDatasetEntry constructs a dataset entry from encoded points.
func (c *Core) buildDatasetEntry(attrs []AttrSpec, pts []blowfish.Point) (*datasetEntry, error) {
	dom, err := buildDomain(attrs)
	if err != nil {
		return nil, err
	}
	ds := blowfish.NewDataset(dom)
	for i, p := range pts {
		if err := ds.Add(p); err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
	}
	tbl, err := blowfish.NewStreamTable(ds)
	if err != nil {
		return nil, err
	}
	tbl.SetMetrics(c.metrics.ingest)
	return &datasetEntry{ds: ds, attrs: append([]AttrSpec(nil), attrs...), tbl: tbl}, nil
}

// buildSessionEntry mints session id as a keyed session over a
// registered policy, and wires the engine's per-policy release
// instruments (resolved once here, never per release).
func (c *Core) buildSessionEntry(pe *policyEntry, budget float64, id string) (*sessionEntry, error) {
	sess, err := pe.cp.NewKeyedSession(budget, noise.ResourceKey(c.cfg.Seed, id))
	if err != nil {
		return nil, err
	}
	sess.SetEngineMetrics(c.metrics.engineMetrics(pe.id))
	e := &sessionEntry{id: id, policyID: pe.id, pol: pe, sess: sess}
	e.lastUsed.Store(c.cfg.Now().UnixNano())
	return e, nil
}

// streamConfigFromRequest lowers the wire-level stream spec.
func streamConfigFromRequest(req CreateStreamRequest) blowfish.StreamConfig {
	kinds := make([]blowfish.StreamReleaseKind, len(req.Kinds))
	for i, k := range req.Kinds {
		kinds[i] = blowfish.StreamReleaseKind(k)
	}
	return blowfish.StreamConfig{
		Window:       blowfish.StreamWindow(req.Window.Kind),
		WindowEpochs: req.Window.Epochs,
		Interval:     time.Duration(req.Epoch.IntervalMS) * time.Millisecond,
		Epsilon:      req.Epoch.Epsilon,
		Decay:        req.Epoch.Decay,
		Epsilons:     req.Epoch.Epsilons,
		Kinds:        kinds,
		Fanout:       req.Fanout,
		RangeQueries: req.RangeQueries,
		MaxReleases:  req.MaxReleases,
	}
}

// buildStreamEntryLocked constructs a stream entry from its creation
// request, resolving the policy and dataset from the registries without
// taking the core lock — recovery (single-threaded) owns the maps, and
// the serving path resolves entries itself before calling the shared core.
func (c *Core) buildStreamEntryLocked(req CreateStreamRequest, id string) (*streamEntry, error) {
	pe, ok := c.policies[req.PolicyID]
	if !ok {
		return nil, fmt.Errorf("unknown policy %s", req.PolicyID)
	}
	de, ok := c.datasets[req.DatasetID]
	if !ok {
		return nil, fmt.Errorf("unknown dataset %s", req.DatasetID)
	}
	return c.buildStreamEntry(pe, de, req, id)
}

// buildStreamEntry binds a policy and dataset into stream id over a
// dedicated keyed session; the stream is NOT started (callers start it
// after registration — recovery only after the whole replay).
func (c *Core) buildStreamEntry(pe *policyEntry, de *datasetEntry, req CreateStreamRequest, id string) (*streamEntry, error) {
	sess, err := pe.cp.NewKeyedSession(req.Budget, noise.ResourceKey(c.cfg.Seed, id))
	if err != nil {
		return nil, err
	}
	sess.SetEngineMetrics(c.metrics.engineMetrics(pe.id))
	cfg := streamConfigFromRequest(req)
	cfg.Logger = c.logger.With("policy", pe.id, "dataset", de.id)
	st, err := sess.NewStream(de.tbl, cfg)
	if err != nil {
		return nil, err
	}
	return &streamEntry{
		id:        id,
		policyID:  pe.id,
		datasetID: de.id,
		pol:       pe,
		de:        de,
		sess:      sess,
		st:        st,
		req:       req,
	}, nil
}

// decodeRecord unmarshals a WAL payload.
func decodeRecord(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("decoding wal payload: %w", err)
	}
	return nil
}

// decodeSnapshot unmarshals a checkpoint payload.
func decodeSnapshot(payload []byte) (*snapServer, error) {
	var snap snapServer
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}
