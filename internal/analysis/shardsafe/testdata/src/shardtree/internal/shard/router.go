// Package shard is a stand-in router demonstrating the three shardsafe
// rules: surface discipline, index provenance, and broadcast rollback.
package shard

import "blowfish/internal/analysis/shardsafe/testdata/src/shardtree/internal/service"

// Router fronts the stand-in cores.
type Router struct {
	cores   []*service.Core
	dsShard map[string]int
}

// ShardFor is the stand-in rendezvous hash.
func ShardFor(id string, n int) int {
	h := 0
	for i := 0; i < len(id); i++ {
		h = h*31 + int(id[i])
	}
	if h < 0 {
		h = -h
	}
	return h % n
}

// route resolves through the routing table with the shard-0 fallback:
// accepted.
func (r *Router) route(id string) *service.Core {
	k, ok := r.dsShard[id]
	if !ok {
		return r.cores[0]
	}
	return r.cores[k]
}

// Peek reaches into a sibling shard by arithmetic: flagged.
func (r *Router) Peek(id string) *service.Core {
	k := r.dsShard[id]
	return r.cores[k+1] // want `computed expression`
}

// Steal uses the white-box accessor: flagged.
func (r *Router) Steal(id string) []float64 {
	return r.route(id).DatasetTable(id) // want `outside the request surface`
}

// ApplyAll broadcasts a mutation with no rollback branch: flagged.
func (r *Router) ApplyAll(id, spec string) {
	for _, c := range r.cores { // want `without a rollback branch`
		_ = c.ApplyPolicy(id, spec)
	}
}

// CreatePolicy broadcasts with rollback: accepted.
func (r *Router) CreatePolicy(id, spec string) error {
	for k, c := range r.cores {
		if err := c.ApplyPolicy(id, spec); err != nil {
			for _, prev := range r.cores[:k] {
				_ = prev.DeletePolicy(id)
			}
			return err
		}
	}
	return nil
}

// Create places by rendezvous hash: accepted.
func (r *Router) Create(id string) error {
	k := ShardFor(id, len(r.cores))
	return r.cores[k].ApplyPolicy(id, "")
}

// Core returns shard k for the recovery harness — the documented
// white-box escape.
func (r *Router) Core(k int) *service.Core {
	//lint:allow shardsafe test-only accessor; the recovery harness addresses shards directly by index
	return r.cores[k]
}
