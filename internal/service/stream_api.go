package service

// Streaming API: event ingest, continual-release streams, epoch closes
// and the release-cursor poll. The HTTP front owns the body encodings
// (JSON envelope, NDJSON, binary batch frame); by the time a batch
// reaches the core it is a []blowfish.StreamEvent. Submitted events may
// alias a front's pooled decode scratch: IngestEvents encodes them into
// mutations and applies them before returning, so the front may recycle
// the scratch as soon as the call returns.

import (
	"context"
	"errors"
	"time"

	"blowfish"
)

// IngestEvents applies a batch of events to the dataset on the caller's
// goroutine: the table validates and encodes the batch, then numbers it
// after the dataset's cursor, journals it write-ahead and applies it under
// one write lock. So a nil error means every event is applied and, on a
// durable core, in the WAL; an event refused at apply time (a bad tuple
// id) is skipped and counted in the response. A batch over MaxEvents, or
// one with a malformed event, is refused whole, as is every batch after
// Close.
func (c *Core) IngestEvents(datasetID string, events []blowfish.StreamEvent) (EventsResponse, error) {
	c.mu.RLock()
	de, ok := c.datasets[datasetID]
	closed := c.closed
	c.mu.RUnlock()
	switch {
	case !ok:
		return EventsResponse{}, errf(CodeUnknownDataset, "no dataset %q", datasetID)
	case closed:
		return EventsResponse{}, errf(CodeBadRequest, "server is shutting down")
	case len(events) == 0:
		return EventsResponse{}, errf(CodeBadRequest, "events batch is empty")
	case len(events) > MaxEvents:
		return EventsResponse{}, errf(CodeBadRequest, "%d events exceed the per-request cap %d", len(events), MaxEvents)
	}
	res, err := de.tbl.Ingest(events)
	switch {
	case errors.Is(err, blowfish.ErrStreamJournalFailed):
		return EventsResponse{}, durabilityErr(err)
	case err != nil:
		return EventsResponse{}, badRequest(err)
	}
	resp := EventsResponse{
		Accepted: len(events),
		FirstSeq: res.First,
		LastSeq:  res.Last,
		Rejected: uint64(res.Rejected),
	}
	if res.LastErr != nil {
		resp.LastError = res.LastErr.Error()
	}
	return resp, nil
}

// ApplyStream binds a dataset and a policy into a continual-release
// stream under an explicit id: a dedicated budgeted session backs the
// epsilon schedule, the dataset's table is indexed through the policy's
// compiled plan, and (when an interval is configured) an epoch ticker
// starts.
func (c *Core) ApplyStream(id string, req CreateStreamRequest) (StreamResponse, error) {
	if id == "" {
		return StreamResponse{}, errf(CodeBadRequest, "apply needs an explicit id")
	}
	if err := c.refuseClosed(); err != nil {
		return StreamResponse{}, err
	}
	pe, ok := c.getPolicy(req.PolicyID)
	if !ok {
		return StreamResponse{}, errf(CodeUnknownPolicy, "no policy %q", req.PolicyID)
	}
	de, ok := c.getDataset(req.DatasetID)
	if !ok {
		return StreamResponse{}, errf(CodeUnknownDataset, "no dataset %q", req.DatasetID)
	}
	e, err := c.buildStreamEntry(pe, de, req, id)
	if err != nil {
		return StreamResponse{}, libError(err)
	}
	st := e.st
	// rollback undoes the side effects New applied to the shared table when
	// the registration below is refused.
	rollback := func() {
		st.Stop()
		st.Unbind()
	}
	c.mu.Lock()
	// Re-check the referenced resources under the write lock that inserts
	// the stream, so a racing policy/dataset deletion cannot strand it.
	if c.closed {
		c.mu.Unlock()
		rollback()
		return StreamResponse{}, errf(CodeBadRequest, "server is shutting down")
	}
	if _, still := c.policies[pe.id]; !still {
		c.mu.Unlock()
		rollback()
		return StreamResponse{}, errf(CodeUnknownPolicy, "no policy %q", req.PolicyID)
	}
	if _, still := c.datasets[de.id]; !still {
		c.mu.Unlock()
		rollback()
		return StreamResponse{}, errf(CodeUnknownDataset, "no dataset %q", req.DatasetID)
	}
	// Windowed (tumbling/sliding) streams mutate shared table state at
	// each close — dataset resets, epoch tags — so a dataset carrying one
	// admits no other stream, in either direction. Cumulative streams
	// coexist freely.
	newWin := st.Config().Window
	for _, other := range c.streams {
		if other.datasetID != de.id {
			continue
		}
		otherWin := other.st.Config().Window
		if newWin != blowfish.WindowCumulative || otherWin != blowfish.WindowCumulative {
			c.mu.Unlock()
			rollback()
			return StreamResponse{}, errf(CodeDatasetInUse,
				"dataset %q already has stream %q (window %q); windowed streams need the dataset to themselves",
				de.id, other.id, otherWin)
		}
	}
	bumpCounter(&c.nextID[3], id)
	if _, dup := c.streams[id]; dup {
		c.mu.Unlock()
		rollback()
		return StreamResponse{}, errf(CodeBadRequest, "stream %q already exists", id)
	}
	if err := c.journal(recStreamPut, walStreamPut{ID: e.id, Req: req}); err != nil {
		c.mu.Unlock()
		rollback()
		return StreamResponse{}, durabilityErr(err)
	}
	if c.persist != nil {
		// Install the epoch journal before the stream is reachable (and
		// before Start), so no close can ever precede its stream's own
		// creation record in the log.
		st.SetJournal(c.epochJournal(e.id))
	}
	c.streams[e.id] = e
	c.mu.Unlock()
	st.Start()
	return streamResponse(e), nil
}

func streamResponse(e *streamEntry) StreamResponse {
	acct := e.sess.Accountant()
	status := e.st.Status()
	cfg := e.st.Config()
	kinds := make([]string, len(cfg.Kinds))
	for i, k := range cfg.Kinds {
		kinds[i] = string(k)
	}
	return StreamResponse{
		ID:          e.id,
		PolicyID:    e.policyID,
		DatasetID:   e.datasetID,
		Budget:      acct.Budget(),
		Spent:       acct.Spent(),
		Remaining:   acct.Remaining(),
		Window:      string(cfg.Window),
		Kinds:       kinds,
		Epoch:       status.Epoch,
		NextEpsilon: status.NextEpsilon,
		Exhausted:   status.Exhausted,
		FirstSeq:    status.FirstSeq,
		LastSeq:     status.LastSeq,
		Rows:        status.N,
		Events:      status.Events,
	}
}

// streamFor resolves a stream id, reporting the structured unknown-stream
// error on miss.
func (c *Core) streamFor(id string) (*streamEntry, error) {
	e, ok := c.getStream(id)
	if !ok {
		return nil, errf(CodeUnknownStream, "no stream %q", id)
	}
	return e, nil
}

// GetStream describes a stream and its progress.
func (c *Core) GetStream(id string) (StreamResponse, error) {
	e, err := c.streamFor(id)
	if err != nil {
		return StreamResponse{}, err
	}
	return streamResponse(e), nil
}

// ListStreams enumerates live streams in id order.
func (c *Core) ListStreams() ListStreamsResponse {
	entries := snapshotSorted(c, c.streams, func(e *streamEntry) string { return e.id })
	resp := ListStreamsResponse{Streams: make([]StreamResponse, len(entries))}
	for i, e := range entries {
		resp.Streams[i] = streamResponse(e)
	}
	return resp
}

// DeleteStream stops and unregisters a stream.
func (c *Core) DeleteStream(id string) error {
	c.mu.Lock()
	e, ok := c.streams[id]
	if ok {
		if err := c.journalDelete(nsStream, id); err != nil {
			c.mu.Unlock()
			return durabilityErr(err)
		}
	}
	delete(c.streams, id)
	c.mu.Unlock()
	if !ok {
		return errf(CodeUnknownStream, "no stream %q", id)
	}
	e.st.Stop()
	// Detach the stream's index so ingestion on the surviving dataset stops
	// maintaining count vectors nobody will read.
	e.st.Unbind()
	return nil
}

// CloseEpoch closes the stream's current epoch on demand — the
// deterministic trigger (automatic interval-driven closes are configured
// at stream creation). Every event batch acknowledged before the call was
// applied before its ack, so the epoch covers exactly those events.
func (c *Core) CloseEpoch(id string) (EpochReleaseWire, error) {
	e, err := c.streamFor(id)
	if err != nil {
		return EpochReleaseWire{}, err
	}
	rel, err := e.st.CloseEpoch()
	if err != nil {
		return EpochReleaseWire{}, libError(err)
	}
	return releaseWire(rel), nil
}

func releaseWire(rel *blowfish.EpochRelease) EpochReleaseWire {
	return EpochReleaseWire{
		Seq:                rel.Seq,
		Epoch:              rel.Epoch,
		Events:             rel.Events,
		Rows:               rel.N,
		Epsilon:            rel.Epsilon,
		Remaining:          rel.Remaining,
		Histogram:          rel.Histogram,
		CumulativeRaw:      rel.CumulativeRaw,
		CumulativeInferred: rel.CumulativeInferred,
		RangeAnswers:       rel.RangeAnswers,
	}
}

// StreamReleases answers a cursor poll over the stream's published
// releases. With wait > 0 and nothing past the cursor, the call long-
// polls until a release arrives or the wait elapses (an empty list). The
// wait is clamped to the configured MaxLongPollWait. A poll — waiting or
// not — that lands past the last release of an exhausted stream gets the
// structured budget_exhausted error: nothing will ever arrive, so pollers
// know to stop.
func (c *Core) StreamReleases(ctx context.Context, id string, since uint64, wait time.Duration) (StreamReleasesResponse, error) {
	e, err := c.streamFor(id)
	if err != nil {
		return StreamReleasesResponse{}, err
	}
	if wait > c.cfg.MaxLongPollWait {
		wait = c.cfg.MaxLongPollWait
	}
	rels := e.st.Releases(since)
	if len(rels) == 0 && wait > 0 {
		wctx, cancel := context.WithTimeout(ctx, wait)
		waited, err := e.st.WaitReleases(wctx, since)
		cancel()
		switch {
		case err == nil:
			rels = waited
		case errors.Is(err, context.DeadlineExceeded):
			// Wait elapsed: answer the empty list, the poller retries.
		case errors.Is(err, blowfish.ErrStreamStopped):
			// The stream (or server) is shutting down: a clean empty
			// response, not an error — the poller's next request resolves
			// the stream's fate.
		case errors.Is(err, blowfish.ErrBudgetExceeded):
			return StreamReleasesResponse{}, libError(err)
		default:
			return StreamReleasesResponse{}, badRequest(err)
		}
	}
	if len(rels) == 0 && e.st.Status().Exhausted {
		// Past the last release of an exhausted stream nothing will ever
		// arrive — the terminal budget_exhausted signal must reach plain
		// polls too, not only the long-poll branch above, or a non-waiting
		// poller loops on empty 200s forever.
		return StreamReleasesResponse{}, libError(blowfish.ErrBudgetExceeded)
	}
	resp := StreamReleasesResponse{Releases: make([]EpochReleaseWire, len(rels)), NextSince: since}
	for i, rel := range rels {
		resp.Releases[i] = releaseWire(rel)
		resp.NextSince = rel.Seq
	}
	return resp, nil
}
