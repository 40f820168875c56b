// Package shard routes a single logical blowfish service across N ≥ 1
// in-process shard workers, each a full service.Core with its own
// registries, WAL segment directory and snapshot cycle. The HTTP front
// serves nothing else: one shard is the smallest router, not a separate
// path. Datasets are the shard key — Blowfish policies compose per
// dataset, so a dataset's indexes, sessions, streams and journal records
// never span shards and each shard recovers independently. Policies are
// broadcast to every shard (they are small, immutable once compiled, and
// every shard needs them to build sessions); list endpoints
// scatter-gather.
package shard

// ShardFor places a resource id on one of n shards by rendezvous
// (highest-random-weight) hashing: every (id, shard) pair is scored and
// the highest score wins. Deterministic in the id alone — no ring state,
// nothing persisted — so the assignment survives restarts by
// construction, and growing n relocates only the ids whose new shard
// outscores every old one (1/(n+1) of them in expectation).
func ShardFor(id string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv1a(id)
	best, bestScore := 0, score(h, 0)
	for i := 1; i < n; i++ {
		if s := score(h, i); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// fnv1a hashes the id bytes (FNV-1a, 64-bit) without allocating.
func fnv1a(id string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return h
}

// score combines the id hash with a shard index and avalanches the result
// (the splitmix64 finalizer). The full-width mix matters: scoring with a
// plain hash of id+digits leaves the per-shard scores correlated — they
// differ by a few low bits before one multiply — which skews the argmax
// and breaks the rendezvous relocation bound (TestShardForRelocation).
func score(idHash uint64, shard int) uint64 {
	x := idHash ^ (uint64(shard)+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
