package service

// White-box accessors: narrow windows into a core's live entries for the
// crash/recovery tests and the load harness. They expose library handles
// (tables, sessions, streams), never the registry internals, so tests can
// read cursors and ledgers without reaching across package boundaries into
// unexported state.

import "blowfish"

// Abandon simulates a crash on a durable core: the auto-checkpoint loop is
// stopped and the WAL file handle is closed with NO final checkpoint and
// NO goroutine drain — the moral equivalent of kill -9, minus the process
// exit. Recovery tests open a fresh core over the same directory
// afterwards. No-op on an in-memory core.
func (c *Core) Abandon() {
	if c.persist == nil {
		return
	}
	c.persist.stopAutoCheckpoint()
	_ = c.persist.log.Close()
}

// DatasetTable returns the named dataset's stream table, or nil.
func (c *Core) DatasetTable(id string) *blowfish.StreamTable {
	e, ok := c.getDataset(id)
	if !ok {
		return nil
	}
	return e.tbl
}

// DatasetHandle returns the named dataset's library handle, or nil. Reads
// against a dataset with live ingestion must hold its table's read lock
// (DatasetTable).
func (c *Core) DatasetHandle(id string) *blowfish.Dataset {
	e, ok := c.getDataset(id)
	if !ok {
		return nil
	}
	return e.ds
}

// HasDataset reports whether a dataset id is registered.
func (c *Core) HasDataset(id string) bool {
	_, ok := c.getDataset(id)
	return ok
}

// SessionHandle returns the named session's library handle, or nil. The
// idle timer is not refreshed.
func (c *Core) SessionHandle(id string) *blowfish.Session {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.sessions[id]
	if !ok {
		return nil
	}
	return e.sess
}

// StreamHandles returns the named stream's library handle and its backing
// session, or nils.
func (c *Core) StreamHandles(id string) (*blowfish.Stream, *blowfish.Session) {
	e, ok := c.getStream(id)
	if !ok {
		return nil, nil
	}
	return e.st, e.sess
}
