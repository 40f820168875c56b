// Package service is a stand-in shard core: a few request-surface
// methods plus one white-box accessor the router must not touch.
package service

// Config is the stand-in configuration.
type Config struct{ Shards int }

// Core is the stand-in shard core.
type Core struct{ secrets []float64 }

// Open builds a core.
func Open(cfg Config) *Core { return &Core{} }

// ApplyPolicy registers a policy (request surface).
func (c *Core) ApplyPolicy(id, spec string) error { return nil }

// DeletePolicy removes a policy (request surface).
func (c *Core) DeletePolicy(id string) error { return nil }

// Histogram releases a histogram (request surface).
func (c *Core) Histogram(sessionID string) []float64 { return nil }

// HasPolicy reports registration (request surface).
func (c *Core) HasPolicy(id string) bool { return false }

// Close shuts the core down (request surface).
func (c *Core) Close() {}

// DatasetTable is the white-box accessor reserved for tests.
func (c *Core) DatasetTable(id string) []float64 { return c.secrets }
