package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"blowfish"
	"blowfish/internal/metrics"
	"blowfish/internal/service"
	"blowfish/internal/wal"
)

// Router is the service the HTTP front (server.New) serves: N ≥ 1 shard
// cores behind one logical namespace. One shard is simply the smallest
// deployment — the router, the id minting and the on-disk layout are the
// same at every shard count.
//
// Placement: datasets hash to a shard by rendezvous hashing of their id
// (ShardFor); streams live with their dataset; sessions live with the
// dataset named by their placement hint (falling back to hashing the
// session id); policies are broadcast to every shard. The router mints
// every id itself so the namespaces stay global — two shards can never
// hand out the same id — and a refused create gives its id back.
type Router struct {
	cores []*service.Core

	// mu guards the id counters and the routing tables. Creates and
	// deletes hold the write lock across the core call so a policy
	// broadcast (which touches every core) cannot interleave with a
	// create that snapshots the policy set; routing lookups take the
	// read lock only.
	mu     sync.RWMutex
	nextID [4]uint64 // policy, dataset, session, stream: last id minted
	// Routing tables, id -> shard index. Not registries and not
	// journaled: each shard's registries are the durable truth, and
	// rebuild() reconstructs these maps from them on every open.
	dsShard     map[string]int
	sessShard   map[string]int
	streamShard map[string]int
}

// Open creates a router over n cores, recovering each shard's durable
// state from its own subdirectory <cfg.Durability.Dir>/shard-<i> when a
// data directory is configured, after openDataDir has stamped a new
// directory or checked an existing one against this format, seed and n.
func Open(cfg service.Config, n int) (*Router, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	if cfg.Durability.Dir != "" {
		if err := openDataDir(cfg.Durability.Dir, cfg.Seed, n); err != nil {
			return nil, err
		}
	}
	r := &Router{
		cores:       make([]*service.Core, 0, n),
		dsShard:     make(map[string]int),
		sessShard:   make(map[string]int),
		streamShard: make(map[string]int),
	}
	for i := 0; i < n; i++ {
		sub := cfg
		sub.ShardLabel = strconv.Itoa(i)
		if cfg.Durability.Dir != "" {
			sub.Durability.Dir = filepath.Join(cfg.Durability.Dir, "shard-"+strconv.Itoa(i))
		}
		core, err := service.Open(sub)
		if err != nil {
			for _, c := range r.cores {
				c.Close()
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		r.cores = append(r.cores, core)
	}
	r.rebuild()
	return r, nil
}

// rebuild reconstructs the routing tables and id counters from the
// recovered cores, and repairs a torn policy broadcast (a crash between
// two shards' creation records) by re-applying missing policies from a
// shard that has them — policy registration is deterministic from its
// spec, so the repaired shard compiles the identical plan. Each counter
// resumes at the highest id any core has ever applied, deleted ids
// included: a client may still hold a deleted or expired id, and must
// never reach a stranger's resource with it.
func (r *Router) rebuild() {
	for k, c := range r.cores {
		for i, n := range c.IDCounters() {
			r.nextID[i] = max(r.nextID[i], n)
		}
		for _, id := range c.DatasetIDs() {
			r.dsShard[id] = k
		}
		for _, id := range c.SessionIDs() {
			r.sessShard[id] = k
		}
		for _, id := range c.StreamIDs() {
			r.streamShard[id] = k
		}
	}
	// Union of policy ids, with one shard that owns each.
	owners := make(map[string]int)
	for k, c := range r.cores {
		for _, id := range c.PolicyIDs() {
			if _, ok := owners[id]; !ok {
				owners[id] = k
			}
		}
	}
	for id, owner := range owners {
		spec, err := r.cores[owner].PolicySpec(id)
		if err != nil {
			continue
		}
		//lint:allow shardsafe torn-broadcast repair: re-applying the policy union is idempotent, so the repair loop IS the rollback
		for _, c := range r.cores {
			if !c.HasPolicy(id) {
				_, _ = c.ApplyPolicy(id, spec)
			}
		}
	}
}

// openDataDir checks a data directory before anything in it is created
// or changed. A new one, which holds no FORMAT and nothing a server
// writes (shard-<i>, or a WAL or snapshot at the root, as every earlier
// layout has) but may hold a volume's lost+found, is stamped with
// FORMAT: service.FormatVersion, then the base seed. An existing one
// must carry the same stamp, since reading another format's records
// loses or resets state, and every recovered noise key derives from the
// seed: another would re-draw releases already served. Its shard-<i>
// must also have i < n, or reopening would strand datasets on shards
// the hash no longer picks.
func openDataDir(dir string, seed int64, n int) error {
	ents, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	state, top := "", -1 // an entry a server wrote; the highest shard index
	for _, e := range ents {
		var i int
		log, _ := filepath.Match("wal-*.log", e.Name())
		snap, _ := filepath.Match("snap-*.db", e.Name())
		if _, err := fmt.Sscanf(e.Name(), "shard-%d", &i); err == nil {
			state, top = e.Name(), max(top, i)
		} else if log || snap {
			state = e.Name()
		}
	}
	refuse := func(found string) error {
		return fmt.Errorf("shard: data directory %s is format %s, but this server reads only format %q; it converts no other format", dir, found, service.FormatVersion)
	}
	b, err := os.ReadFile(filepath.Join(dir, "FORMAT"))
	switch {
	case errors.Is(err, os.ErrNotExist) && state == "":
		return wal.WriteFileAtomic(dir, "FORMAT", fmt.Appendf(nil, "%s\nseed %d\n", service.FormatVersion, seed))
	case errors.Is(err, os.ErrNotExist):
		return refuse("none (no FORMAT file beside " + state + ")")
	case err != nil:
		return err
	}
	var version string
	var stored int64
	_, err = fmt.Sscanf(string(b), "%s\nseed %d", &version, &stored)
	switch {
	case version != service.FormatVersion:
		return refuse(strconv.Quote(version))
	case err != nil:
		return fmt.Errorf("shard: data directory %s: FORMAT names no seed: %w", dir, err)
	case stored != seed:
		return fmt.Errorf("shard: data directory %s was written with seed %d, not %d: its noise keys derive from the seed, and another would re-draw releases already served; reopen with seed %d", dir, stored, seed, stored)
	case top >= n:
		return fmt.Errorf("shard: data directory %s holds shard-%d but only %d shard(s) configured; reopen with the original shard count", dir, top, n)
	}
	return nil
}

// ShardOf reports which shard currently owns a dataset, session or
// stream id (-1 when unknown). Diagnostics and tests.
func (r *Router) ShardOf(id string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if k, ok := r.dsShard[id]; ok {
		return k
	}
	if k, ok := r.sessShard[id]; ok {
		return k
	}
	if k, ok := r.streamShard[id]; ok {
		return k
	}
	return -1
}

// Core returns shard k's core (tests and the recovery harness).
//
//lint:allow shardsafe white-box accessor for tests and the recovery harness, which address shards directly by index
func (r *Router) Core(k int) *service.Core { return r.cores[k] }

// mint reserves the next id in a namespace under the write lock already
// held by the caller.
func (r *Router) mint(kind int, prefix string) string {
	r.nextID[kind]++
	return prefix + "-" + strconv.FormatUint(r.nextID[kind], 10)
}

// unmint gives back the id the caller just minted, under the same write
// lock, when its create was refused: a refused create uses up no id.
func (r *Router) unmint(kind int) { r.nextID[kind]-- }

// route resolves an id through one routing table under the read lock.
func (r *Router) route(m map[string]int, id string) *service.Core {
	r.mu.RLock()
	c := r.lookup(m, id)
	r.mu.RUnlock()
	return c
}

// lookup is route for callers that already hold r.mu. A miss falls back
// to shard 0 so the core produces its own structured unknown-* error —
// the router never invents error messages of its own.
func (r *Router) lookup(m map[string]int, id string) *service.Core {
	if k, ok := m[id]; ok {
		return r.cores[k]
	}
	return r.cores[0]
}

// --- policies (broadcast) --------------------------------------------------

// CreatePolicy registers a policy on every shard under one id. The
// broadcast is sequential with rollback: if shard k refuses, the policy
// is removed from shards 0..k-1 and the create fails as a whole.
func (r *Router) CreatePolicy(req service.CreatePolicyRequest) (service.PolicyResponse, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.mint(0, "pol")
	var resp service.PolicyResponse
	for k, c := range r.cores {
		got, err := c.ApplyPolicy(id, req)
		if err != nil {
			for _, prev := range r.cores[:k] {
				_ = prev.DeletePolicy(id)
			}
			r.unmint(0)
			return service.PolicyResponse{}, err
		}
		if k == 0 {
			resp = got
		}
	}
	return resp, nil
}

func (r *Router) GetPolicy(id string) (service.PolicyResponse, error) {
	return r.cores[0].GetPolicy(id)
}

func (r *Router) ListPolicies() service.ListPoliciesResponse {
	return r.cores[0].ListPolicies()
}

// DeletePolicy removes a policy from every shard. Any shard may refuse
// (live sessions or streams reference it there); refused deletes restore
// the policy on the shards that already dropped it, so the broadcast
// stays all-or-nothing.
func (r *Router) DeletePolicy(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	spec, specErr := r.cores[0].PolicySpec(id)
	for k, c := range r.cores {
		if err := c.DeletePolicy(id); err != nil {
			if specErr == nil {
				for _, prev := range r.cores[:k] {
					_, _ = prev.ApplyPolicy(id, spec)
				}
			}
			return err
		}
	}
	return nil
}

// --- datasets (hashed) -----------------------------------------------------

func (r *Router) CreateDataset(req service.CreateDatasetRequest) (service.DatasetResponse, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.mint(1, "ds")
	k := ShardFor(id, len(r.cores))
	resp, err := r.cores[k].ApplyDataset(id, req)
	if err != nil {
		r.unmint(1)
		return service.DatasetResponse{}, err
	}
	r.dsShard[id] = k
	return resp, nil
}

func (r *Router) GetDataset(id string) (service.DatasetResponse, error) {
	return r.route(r.dsShard, id).GetDataset(id)
}

func (r *Router) ListDatasets() service.ListDatasetsResponse {
	out := service.ListDatasetsResponse{Datasets: []service.DatasetResponse{}}
	for _, c := range r.cores {
		out.Datasets = append(out.Datasets, c.ListDatasets().Datasets...)
	}
	sortByID(out.Datasets, func(d service.DatasetResponse) string { return d.ID })
	return out
}

func (r *Router) DeleteDataset(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.lookup(r.dsShard, id).DeleteDataset(id); err != nil {
		return err
	}
	delete(r.dsShard, id)
	return nil
}

func (r *Router) IngestEvents(datasetID string, events []blowfish.StreamEvent) (service.EventsResponse, error) {
	return r.route(r.dsShard, datasetID).IngestEvents(datasetID, events)
}

// --- sessions (colocated with their dataset) -------------------------------

func (r *Router) CreateSession(req service.CreateSessionRequest) (service.SessionResponse, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.mint(2, "sess")
	k, ok := r.dsShard[req.DatasetID]
	if !ok {
		// No placement hint (or an unknown dataset, which the release
		// path will report): hash the session's own id.
		k = ShardFor(id, len(r.cores))
	}
	resp, err := r.cores[k].ApplySession(id, req)
	if err != nil {
		r.unmint(2)
		return service.SessionResponse{}, err
	}
	r.sessShard[id] = k
	return resp, nil
}

func (r *Router) GetSession(id string) (service.SessionResponse, error) {
	return r.route(r.sessShard, id).GetSession(id)
}

func (r *Router) ListSessions() service.ListSessionsResponse {
	out := service.ListSessionsResponse{Sessions: []service.SessionResponse{}}
	for _, c := range r.cores {
		out.Sessions = append(out.Sessions, c.ListSessions().Sessions...)
	}
	sortByID(out.Sessions, func(s service.SessionResponse) string { return s.ID })
	return out
}

func (r *Router) DeleteSession(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.lookup(r.sessShard, id).DeleteSession(id); err != nil {
		return err
	}
	delete(r.sessShard, id)
	return nil
}

func (r *Router) Histogram(sessionID string, req service.HistogramRequest) (service.HistogramResponse, error) {
	return r.route(r.sessShard, sessionID).Histogram(sessionID, req)
}

func (r *Router) Cumulative(sessionID string, req service.CumulativeRequest) (service.CumulativeResponse, error) {
	return r.route(r.sessShard, sessionID).Cumulative(sessionID, req)
}

func (r *Router) Range(sessionID string, req service.RangeRequest) (service.RangeResponse, error) {
	return r.route(r.sessShard, sessionID).Range(sessionID, req)
}

// --- streams (colocated with their dataset) --------------------------------

func (r *Router) CreateStream(req service.CreateStreamRequest) (service.StreamResponse, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.mint(3, "stream")
	// A stream binds its dataset's table, so it must live on the
	// dataset's shard; an unknown dataset routes to shard 0 for the
	// structured error.
	k, ok := r.dsShard[req.DatasetID]
	if !ok {
		k = 0
	}
	resp, err := r.cores[k].ApplyStream(id, req)
	if err != nil {
		r.unmint(3)
		return service.StreamResponse{}, err
	}
	r.streamShard[id] = k
	return resp, nil
}

func (r *Router) GetStream(id string) (service.StreamResponse, error) {
	return r.route(r.streamShard, id).GetStream(id)
}

func (r *Router) ListStreams() service.ListStreamsResponse {
	out := service.ListStreamsResponse{Streams: []service.StreamResponse{}}
	for _, c := range r.cores {
		out.Streams = append(out.Streams, c.ListStreams().Streams...)
	}
	sortByID(out.Streams, func(s service.StreamResponse) string { return s.ID })
	return out
}

func (r *Router) DeleteStream(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.lookup(r.streamShard, id).DeleteStream(id); err != nil {
		return err
	}
	delete(r.streamShard, id)
	return nil
}

func (r *Router) CloseEpoch(id string) (service.EpochReleaseWire, error) {
	return r.route(r.streamShard, id).CloseEpoch(id)
}

func (r *Router) StreamReleases(ctx context.Context, id string, since uint64, wait time.Duration) (service.StreamReleasesResponse, error) {
	return r.route(r.streamShard, id).StreamReleases(ctx, id, since, wait)
}

// --- lifecycle / aggregates ------------------------------------------------

// Checkpoint snapshots every shard and aggregates the stats (summed
// bytes, slowest duration, the highest LSN's path). The first error wins;
// later shards still checkpoint so one failure does not grow every other
// shard's WAL unboundedly.
func (r *Router) Checkpoint() (service.CheckpointStats, error) {
	var agg service.CheckpointStats
	var firstErr error
	for _, c := range r.cores {
		st, err := c.Checkpoint()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		agg.Bytes += st.Bytes
		if st.DurationMS > agg.DurationMS {
			agg.DurationMS = st.DurationMS
		}
		if st.LSN >= agg.LSN {
			agg.LSN = st.LSN
			agg.Path = st.Path
		}
	}
	if firstErr != nil {
		return service.CheckpointStats{}, firstErr
	}
	return agg, nil
}

// ExpireSessions sweeps every shard and prunes the routing entries of the
// sessions the shards dropped.
func (r *Router) ExpireSessions() int {
	n := 0
	for _, c := range r.cores {
		n += c.ExpireSessions()
	}
	if n > 0 {
		r.mu.Lock()
		for id, k := range r.sessShard {
			if !r.cores[k].HasSession(id) {
				delete(r.sessShard, id)
			}
		}
		r.mu.Unlock()
	}
	return n
}

func (r *Router) SessionCount() int {
	n := 0
	for _, c := range r.cores {
		n += c.SessionCount()
	}
	return n
}

func (r *Router) StreamCount() int {
	n := 0
	for _, c := range r.cores {
		n += c.StreamCount()
	}
	return n
}

func (r *Router) CloseLeaked() int {
	n := 0
	for _, c := range r.cores {
		n += c.CloseLeaked()
	}
	return n
}

// Close shuts the shards down concurrently — each stops its own tickers
// and takes its own final checkpoint.
func (r *Router) Close() {
	var wg sync.WaitGroup
	for _, c := range r.cores {
		wg.Add(1)
		go func(c *service.Core) {
			defer wg.Done()
			c.Close()
		}(c)
	}
	wg.Wait()
}

// Abandon simulates a crash on every shard (crash-recovery tests).
func (r *Router) Abandon() {
	for _, c := range r.cores {
		c.Abandon()
	}
}

// Registries returns every shard's metric registry, shard 0 first; the
// front merges them behind its own into one /metrics exposition.
func (r *Router) Registries() []*metrics.Registry {
	out := make([]*metrics.Registry, 0, len(r.cores))
	for _, c := range r.cores {
		out = append(out, c.Metrics())
	}
	return out
}

// sortByID orders a scatter-gathered list the way a single core's list
// endpoint would ("ds-2" before "ds-10").
func sortByID[E any](s []E, id func(E) string) {
	sort.Slice(s, func(i, j int) bool { return service.CompareIDs(id(s[i]), id(s[j])) < 0 })
}
