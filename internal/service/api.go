package service

// The request/response API of a Core. Each method mirrors one v1
// endpoint of the HTTP front, takes the wire-level request, and returns
// the wire-level response or a *Error. The Apply* methods are the whole
// create surface: a resource lands under exactly the id the caller
// assigned, because the shard router mints every id so that one logical
// namespace spans every shard. Each applied id raises the core's persisted
// counter for its namespace (IDCounters), so a restarted router never
// mints an id this core has already held.

import (
	"blowfish"
)

// --- policies --------------------------------------------------------------

// ApplyPolicy registers and compiles a policy under an explicit id.
func (c *Core) ApplyPolicy(id string, req CreatePolicyRequest) (PolicyResponse, error) {
	if id == "" {
		return PolicyResponse{}, errf(CodeBadRequest, "apply needs an explicit id")
	}
	e, err := buildPolicyEntry(req.Domain, req.Graph)
	if err != nil {
		return PolicyResponse{}, badRequest(err)
	}
	c.mu.Lock()
	bumpCounter(&c.nextID[0], id)
	if _, dup := c.policies[id]; dup {
		c.mu.Unlock()
		return PolicyResponse{}, errf(CodeBadRequest, "policy %q already exists", id)
	}
	e.id = id
	if err := c.journal(recPolicyPut, walPolicyPut{ID: e.id, Domain: e.attrs, Graph: e.graph}); err != nil {
		c.mu.Unlock()
		return PolicyResponse{}, durabilityErr(err)
	}
	c.policies[e.id] = e
	c.mu.Unlock()
	return policyResponse(e), nil
}

func policyResponse(e *policyEntry) PolicyResponse {
	return PolicyResponse{
		ID:                   e.id,
		Name:                 e.pol.Name(),
		Domain:               e.attrs,
		DomainSize:           e.pol.Domain().Size(),
		HistogramSensitivity: e.histSens,
		Edges:                e.edges,
		Components:           e.components,
	}
}

// GetPolicy describes a registered policy.
func (c *Core) GetPolicy(id string) (PolicyResponse, error) {
	e, ok := c.getPolicy(id)
	if !ok {
		return PolicyResponse{}, errf(CodeUnknownPolicy, "no policy %q", id)
	}
	return policyResponse(e), nil
}

// PolicySpec returns the wire-level declaration a policy was registered
// with — the exact request that rebuilds it (the shard router uses it to
// restore a broadcast delete that one shard refused).
func (c *Core) PolicySpec(id string) (CreatePolicyRequest, error) {
	e, ok := c.getPolicy(id)
	if !ok {
		return CreatePolicyRequest{}, errf(CodeUnknownPolicy, "no policy %q", id)
	}
	return CreatePolicyRequest{Domain: e.attrs, Graph: e.graph}, nil
}

// ListPolicies enumerates registered policies in id order.
func (c *Core) ListPolicies() ListPoliciesResponse {
	entries := snapshotSorted(c, c.policies, func(e *policyEntry) string { return e.id })
	resp := ListPoliciesResponse{Policies: make([]PolicyResponse, len(entries))}
	for i, e := range entries {
		resp.Policies[i] = policyResponse(e)
	}
	return resp
}

// DeletePolicy unregisters a policy. Deletion is refused while any live
// session or stream references it: a release against such a session would
// otherwise silently lose the policy's partition and fall back to a
// different mechanism.
func (c *Core) DeletePolicy(id string) error {
	c.mu.Lock()
	_, ok := c.policies[id]
	if !ok {
		c.mu.Unlock()
		return errf(CodeUnknownPolicy, "no policy %q", id)
	}
	// The refusal names no referent: which one a core finds first depends
	// on map order, and at N shards on which shard refuses first.
	inUse := false
	for _, sess := range c.sessions {
		inUse = inUse || sess.policyID == id
	}
	for _, st := range c.streams {
		inUse = inUse || st.policyID == id
	}
	if inUse {
		c.mu.Unlock()
		return errf(CodePolicyInUse, "policy %q is in use by live sessions or streams; delete them first", id)
	}
	if err := c.journalDelete(nsPolicy, id); err != nil {
		c.mu.Unlock()
		return durabilityErr(err)
	}
	delete(c.policies, id)
	c.mu.Unlock()
	return nil
}

// --- datasets --------------------------------------------------------------

// ApplyDataset uploads and registers a dataset under an explicit id.
func (c *Core) ApplyDataset(id string, req CreateDatasetRequest) (DatasetResponse, error) {
	if id == "" {
		return DatasetResponse{}, errf(CodeBadRequest, "apply needs an explicit id")
	}
	var attrs []AttrSpec
	switch {
	case req.PolicyID != "" && len(req.Domain) > 0:
		return DatasetResponse{}, errf(CodeBadRequest, "give policy_id or domain, not both")
	case req.PolicyID != "":
		pe, ok := c.getPolicy(req.PolicyID)
		if !ok {
			return DatasetResponse{}, errf(CodeUnknownPolicy, "no policy %q", req.PolicyID)
		}
		attrs = pe.attrs
	case len(req.Domain) > 0:
		attrs = req.Domain
	default:
		return DatasetResponse{}, errf(CodeBadRequest, "dataset needs a policy_id or an inline domain")
	}
	dom, err := buildDomain(attrs)
	if err != nil {
		return DatasetResponse{}, badRequest(err)
	}
	pts := make([]blowfish.Point, len(req.Rows))
	for i, row := range req.Rows {
		p, err := dom.Encode(row...)
		if err != nil {
			return DatasetResponse{}, errf(CodeBadRequest, "row %d: %v", i, err)
		}
		pts[i] = p
	}
	e, err := c.buildDatasetEntry(attrs, pts)
	if err != nil {
		return DatasetResponse{}, badRequest(err)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return DatasetResponse{}, errf(CodeBadRequest, "server is shutting down")
	}
	bumpCounter(&c.nextID[1], id)
	if _, dup := c.datasets[id]; dup {
		c.mu.Unlock()
		return DatasetResponse{}, errf(CodeBadRequest, "dataset %q already exists", id)
	}
	e.id = id
	if err := c.journal(recDatasetPut, walDatasetPut{ID: e.id, Domain: e.attrs, Points: pts}); err != nil {
		c.mu.Unlock()
		return DatasetResponse{}, durabilityErr(err)
	}
	if c.persist != nil {
		e.tbl.SetJournal(c.eventJournal(e.id))
	}
	c.datasets[e.id] = e
	c.mu.Unlock()
	return DatasetResponse{ID: e.id, Rows: e.ds.Len(), Domain: e.attrs}, nil
}

// GetDataset describes a registered dataset.
func (c *Core) GetDataset(id string) (DatasetResponse, error) {
	e, ok := c.getDataset(id)
	if !ok {
		return DatasetResponse{}, errf(CodeUnknownDataset, "no dataset %q", id)
	}
	// The table's lock-free row count: the events handler resolves the
	// dataset here while ingestion may be landing, and must never queue
	// behind a waiting ingest batch (see stream.Table.Len).
	return DatasetResponse{ID: e.id, Rows: e.tbl.Len(), Domain: e.attrs}, nil
}

// ListDatasets enumerates registered datasets in id order.
func (c *Core) ListDatasets() ListDatasetsResponse {
	entries := snapshotSorted(c, c.datasets, func(e *datasetEntry) string { return e.id })
	resp := ListDatasetsResponse{Datasets: make([]DatasetResponse, len(entries))}
	for i, e := range entries {
		resp.Datasets[i] = DatasetResponse{ID: e.id, Rows: e.tbl.Len(), Domain: e.attrs}
	}
	return resp
}

// DeleteDataset unregisters a dataset. In-flight releases holding the
// entry finish against their own reference; new requests see the unknown-
// dataset error. Every compiled policy drops its cached index for the
// dataset so the count vectors are released with it.
func (c *Core) DeleteDataset(id string) error {
	c.mu.Lock()
	for _, st := range c.streams {
		if st.datasetID == id {
			c.mu.Unlock()
			return errf(CodeDatasetInUse, "dataset %q is in use by live streams; delete them first", id)
		}
	}
	e, ok := c.datasets[id]
	if ok {
		if err := c.journalDelete(nsDataset, id); err != nil {
			c.mu.Unlock()
			return durabilityErr(err)
		}
	}
	delete(c.datasets, id)
	// Snapshot the compiled policies under the registry lock but run
	// Forget after releasing it: Forget takes each plan's own mutex, which
	// an in-flight release may hold for an expensive compile step (a
	// first-use tree build), and every request path needs c.mu.
	var cps []*blowfish.CompiledPolicy
	if ok {
		cps = make([]*blowfish.CompiledPolicy, 0, len(c.policies))
		for _, pe := range c.policies {
			//lint:allow detorder Forget only drops per-plan cached indexes; call order is unobservable (no output, no WAL record, no ledger change)
			cps = append(cps, pe.cp)
		}
	}
	c.mu.Unlock()
	if !ok {
		return errf(CodeUnknownDataset, "no dataset %q", id)
	}
	for _, cp := range cps {
		cp.Forget(e.ds)
	}
	return nil
}

// --- sessions --------------------------------------------------------------

// ApplySession opens a budgeted release session under an explicit id.
func (c *Core) ApplySession(id string, req CreateSessionRequest) (SessionResponse, error) {
	if id == "" {
		return SessionResponse{}, errf(CodeBadRequest, "apply needs an explicit id")
	}
	pe, ok := c.getPolicy(req.PolicyID)
	if !ok {
		return SessionResponse{}, errf(CodeUnknownPolicy, "no policy %q", req.PolicyID)
	}
	// Sessions run keyed on the policy's compiled plan, so parallel release
	// requests draw noise concurrently and no noise depends on the host.
	e, err := c.buildSessionEntry(pe, req.Budget, id)
	if err != nil {
		return SessionResponse{}, badRequest(err)
	}
	c.mu.Lock()
	// Re-check under the write lock that inserts the session: a concurrent
	// policy deletion in the lookup window must not leave a session
	// referencing an unregistered policy.
	if _, still := c.policies[pe.id]; !still {
		c.mu.Unlock()
		return SessionResponse{}, errf(CodeUnknownPolicy, "no policy %q", req.PolicyID)
	}
	bumpCounter(&c.nextID[2], id)
	if _, dup := c.sessions[id]; dup {
		c.mu.Unlock()
		return SessionResponse{}, errf(CodeBadRequest, "session %q already exists", id)
	}
	if err := c.journal(recSessionPut, walSessionPut{ID: e.id, PolicyID: pe.id, Budget: req.Budget}); err != nil {
		c.mu.Unlock()
		return SessionResponse{}, durabilityErr(err)
	}
	c.sessions[e.id] = e
	c.mu.Unlock()
	return sessionResponse(e, false), nil
}

func sessionResponse(e *sessionEntry, withLog bool) SessionResponse {
	acct := e.sess.Accountant()
	resp := SessionResponse{
		ID:        e.id,
		PolicyID:  e.policyID,
		Budget:    acct.Budget(),
		Spent:     acct.Spent(),
		Remaining: acct.Remaining(),
	}
	if withLog {
		for _, rel := range acct.Releases() {
			resp.Releases = append(resp.Releases, ReleaseRecord{Label: rel.Label, Epsilon: rel.Epsilon})
		}
	}
	return resp
}

// sessionFor resolves a session id, reporting the structured
// unknown-session error on miss.
func (c *Core) sessionFor(id string) (*sessionEntry, error) {
	e, ok := c.getSession(id)
	if !ok {
		return nil, errf(CodeUnknownSession, "no session %q (expired or never created)", id)
	}
	return e, nil
}

// GetSession describes a session including its budget ledger.
func (c *Core) GetSession(id string) (SessionResponse, error) {
	e, err := c.sessionFor(id)
	if err != nil {
		return SessionResponse{}, err
	}
	return sessionResponse(e, true), nil
}

// ListSessions enumerates live sessions in id order (without ledgers).
func (c *Core) ListSessions() ListSessionsResponse {
	entries := snapshotSorted(c, c.sessions, func(e *sessionEntry) string { return e.id })
	resp := ListSessionsResponse{Sessions: make([]SessionResponse, len(entries))}
	for i, e := range entries {
		resp.Sessions[i] = sessionResponse(e, false)
	}
	return resp
}

// DeleteSession drops a session.
func (c *Core) DeleteSession(id string) error {
	c.mu.Lock()
	_, ok := c.sessions[id]
	if ok {
		if err := c.journalDelete(nsSession, id); err != nil {
			c.mu.Unlock()
			return durabilityErr(err)
		}
	}
	delete(c.sessions, id)
	c.mu.Unlock()
	if !ok {
		return errf(CodeUnknownSession, "no session %q", id)
	}
	return nil
}

// --- releases --------------------------------------------------------------

// datasetFor resolves a dataset id from a release request body.
func (c *Core) datasetFor(id string) (*datasetEntry, error) {
	e, ok := c.getDataset(id)
	if !ok {
		return nil, errf(CodeUnknownDataset, "no dataset %q", id)
	}
	return e, nil
}

// Histogram draws a complete (or partition-block) histogram release.
func (c *Core) Histogram(sessionID string, req HistogramRequest) (HistogramResponse, error) {
	e, err := c.sessionFor(sessionID)
	if err != nil {
		return HistogramResponse{}, err
	}
	de, err := c.datasetFor(req.DatasetID)
	if err != nil {
		return HistogramResponse{}, err
	}
	// On the durable path the release and its WAL record form one critical
	// section (see sessionEntry.relMu).
	if unlock := c.lockForRelease(e); unlock != nil {
		defer unlock()
	}
	var counts []float64
	// The table read lock orders the release against streaming ingestion:
	// event batches and window expiry take the write side.
	de.tbl.RLock()
	if e.pol.part != nil {
		// Partition policies answer the block histogram h_P; when every
		// secret pair stays within a block the release is exact and free.
		counts, err = e.sess.ReleasePartitionHistogram(de.ds, e.pol.part, req.Epsilon)
	} else {
		counts, err = e.sess.ReleaseHistogram(de.ds, req.Epsilon)
	}
	de.tbl.RUnlock()
	if err != nil {
		return HistogramResponse{}, libError(err)
	}
	if err := c.journalRelease(e, "histogram", req.DatasetID, req.Epsilon); err != nil {
		return HistogramResponse{}, durabilityErr(err)
	}
	//lint:allow truthflow a zero-sensitivity partition release is exact by design: no secret pair crosses a block, so the counts are policy-public (Section 5 coarse-grid observation); any sens>0 path is noised inside the mechanism
	return HistogramResponse{Counts: counts, Remaining: e.sess.Remaining()}, nil
}

// Cumulative draws an Ordered Mechanism cumulative histogram release.
func (c *Core) Cumulative(sessionID string, req CumulativeRequest) (CumulativeResponse, error) {
	e, err := c.sessionFor(sessionID)
	if err != nil {
		return CumulativeResponse{}, err
	}
	de, err := c.datasetFor(req.DatasetID)
	if err != nil {
		return CumulativeResponse{}, err
	}
	if unlock := c.lockForRelease(e); unlock != nil {
		defer unlock()
	}
	de.tbl.RLock()
	rel, err := e.sess.ReleaseCumulativeHistogram(de.ds, req.Epsilon)
	de.tbl.RUnlock()
	if err != nil {
		return CumulativeResponse{}, libError(err)
	}
	if err := c.journalRelease(e, "cumulative", req.DatasetID, req.Epsilon); err != nil {
		return CumulativeResponse{}, durabilityErr(err)
	}
	return CumulativeResponse{
		Raw:       rel.Raw,
		Inferred:  rel.Inferred,
		Remaining: e.sess.Remaining(),
	}, nil
}

const defaultFanout = 16

// Range builds one Ordered Hierarchical release (charging Epsilon once)
// and answers every query against it.
func (c *Core) Range(sessionID string, req RangeRequest) (RangeResponse, error) {
	e, err := c.sessionFor(sessionID)
	if err != nil {
		return RangeResponse{}, err
	}
	if len(req.Queries) == 0 {
		return RangeResponse{}, errf(CodeBadRequest, "range release needs at least one query")
	}
	de, err := c.datasetFor(req.DatasetID)
	if err != nil {
		return RangeResponse{}, err
	}
	// Validate query bounds before building the releaser: a malformed
	// query must not cost budget.
	size := int(de.ds.Domain().Size())
	for i, q := range req.Queries {
		if q.Lo < 0 || q.Hi >= size || q.Lo > q.Hi {
			return RangeResponse{}, errf(CodeBadRequest, "query %d: invalid range [%d,%d] over domain size %d", i, q.Lo, q.Hi, size)
		}
	}
	fanout := req.Fanout
	if fanout == 0 {
		fanout = defaultFanout
	}
	if unlock := c.lockForRelease(e); unlock != nil {
		defer unlock()
	}
	// Only the release reads the table, so only it holds the read lock.
	de.tbl.RLock()
	answers, err := e.sess.ReleaseRangeAnswers(de.ds, fanout, req.Epsilon, req.Queries)
	de.tbl.RUnlock()
	if err != nil {
		return RangeResponse{}, libError(err)
	}
	if err := c.journalRelease(e, "range", req.DatasetID, req.Epsilon); err != nil {
		return RangeResponse{}, durabilityErr(err)
	}
	return RangeResponse{Answers: answers, Remaining: e.sess.Remaining()}, nil
}

// --- enumeration (shard router rebuild) ------------------------------------

// PolicyIDs returns the registered policy ids in id order.
func (c *Core) PolicyIDs() []string {
	entries := snapshotSorted(c, c.policies, func(e *policyEntry) string { return e.id })
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.id
	}
	return out
}

// DatasetIDs returns the registered dataset ids in id order.
func (c *Core) DatasetIDs() []string {
	entries := snapshotSorted(c, c.datasets, func(e *datasetEntry) string { return e.id })
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.id
	}
	return out
}

// SessionIDs returns the live session ids in id order.
func (c *Core) SessionIDs() []string {
	entries := snapshotSorted(c, c.sessions, func(e *sessionEntry) string { return e.id })
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.id
	}
	return out
}

// StreamIDs returns the live stream ids in id order.
func (c *Core) StreamIDs() []string {
	entries := snapshotSorted(c, c.streams, func(e *streamEntry) string { return e.id })
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.id
	}
	return out
}

// HasSession reports whether a session id is live (no idle-timer refresh).
func (c *Core) HasSession(id string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.sessions[id]
	return ok
}

// HasPolicy reports whether a policy id is registered.
func (c *Core) HasPolicy(id string) bool {
	_, ok := c.getPolicy(id)
	return ok
}
