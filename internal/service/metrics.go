package service

// Observability: the core's metric families and scrape-time collectors.
//
// Two disciplines keep instrumentation off the hot paths. First, every
// metric a hot path touches is pre-resolved: the engine gets bare
// counter/histogram pointers per policy at session construction and each
// dataset's table gets the ingest instruments at creation — no label-map
// lookups per operation. Second, anything derived or high-churn
// (per-session budget gauges, ingest cursors, epoch lag, long-poll
// waiters) is computed only when /metrics is scraped, by collectors that
// read the registries under the core's ordinary locks.
//
// Naming convention: blowfish_<subsystem>_<quantity>[_unit], latencies in
// seconds (Prometheus base units), counters suffixed _total. Cardinality
// budget: per-policy and per-kind labels are bounded by the registry (a
// handful of policies × 5 release kinds); per-session and per-stream
// series exist only at scrape time and scale with the live registry, which
// the session TTL sweeper bounds.
//
// The shard router gives each core a ShardLabel; the registry stamps it
// onto every family as a constant shard="<i>" label, so the merged
// exposition keeps per-shard series distinct without any per-sample labels
// on the hot paths. Process-wide families — HTTP requests and the Go
// runtime — live once in the front's registry, not in any core's.

import (
	"time"

	"blowfish"
	"blowfish/internal/metrics"
	"blowfish/internal/wal"
)

// coreMetrics bundles the registry and every pre-resolved family.
type coreMetrics struct {
	reg *metrics.Registry

	releaseLatency *metrics.HistogramVec // policy, kind
	releaseCount   *metrics.CounterVec   // policy, kind
	noiseDraws     *metrics.Counter

	ingest *blowfish.StreamIngestMetrics

	wal             *wal.Metrics
	snapshotSeconds *metrics.Histogram
	snapshotBytes   *metrics.Gauge
	checkpoints     *metrics.Counter

	closeLeaked *metrics.Gauge
}

func newCoreMetrics(shardLabel string) *coreMetrics {
	reg := metrics.NewRegistry()
	if shardLabel != "" {
		reg.SetConstLabels(metrics.Label{Name: "shard", Value: shardLabel})
	}
	m := &coreMetrics{
		reg: reg,
		releaseLatency: reg.HistogramVec("blowfish_release_seconds",
			"Release latency (truth read + noise + budget charge) by policy and kind.",
			nil, "policy", "kind"),
		releaseCount: reg.CounterVec("blowfish_releases_total",
			"Successful releases by policy and kind.", "policy", "kind"),
		noiseDraws: reg.Counter("blowfish_noise_draws_total",
			"Noisy releases started."),
		ingest: &blowfish.StreamIngestMetrics{
			ApplySeconds: reg.Histogram("blowfish_ingest_apply_seconds",
				"Ingest batch apply latency (journal append + index update).", nil),
			Batches: reg.Counter("blowfish_ingest_batches_total",
				"Ingest batches applied."),
			Events: reg.Counter("blowfish_ingest_events_total",
				"Events applied (all datasets)."),
			Rejected: reg.Counter("blowfish_ingest_rejected_total",
				"Events rejected at apply time (bad tuple ids)."),
			JournalFailures: reg.Counter("blowfish_ingest_journal_failures_total",
				"Ingest batches refused by a failed write-ahead append."),
		},
		wal: &wal.Metrics{
			FsyncSeconds: reg.Histogram("blowfish_wal_fsync_seconds",
				"WAL fsync latency.", nil),
			Appends: reg.Counter("blowfish_wal_appends_total",
				"WAL records appended."),
			Bytes: reg.Counter("blowfish_wal_bytes_total",
				"WAL bytes journaled (framing included)."),
			Segments: reg.Gauge("blowfish_wal_segments",
				"Live WAL segment files."),
		},
		snapshotSeconds: reg.Histogram("blowfish_snapshot_seconds",
			"Checkpoint snapshot duration (serialize + durable write + log rotation).",
			[]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}),
		snapshotBytes: reg.Gauge("blowfish_snapshot_bytes",
			"Size of the most recent checkpoint snapshot."),
		checkpoints: reg.Counter("blowfish_checkpoints_total",
			"Completed checkpoints."),
		closeLeaked: reg.Gauge("blowfish_close_leaked_goroutines",
			"Stream ticker goroutines still alive when Server.Close gave up waiting."),
	}
	return m
}

// engineMetrics resolves the per-policy engine instruments. Called once
// per session construction; the children live in the vec maps, so two
// sessions of one policy share series.
func (m *coreMetrics) engineMetrics(policyID string) *blowfish.EngineMetrics {
	rel := func(kind string) blowfish.EngineReleaseMetrics {
		return blowfish.EngineReleaseMetrics{
			Latency: m.releaseLatency.With(policyID, kind),
			Count:   m.releaseCount.With(policyID, kind),
		}
	}
	return &blowfish.EngineMetrics{
		Histogram:  rel("histogram"),
		Partition:  rel("partition"),
		Cumulative: rel("cumulative"),
		Range:      rel("range"),
		KMeans:     rel("kmeans"),
		NoiseDraws: m.noiseDraws,
	}
}

// Metrics returns the core's metric registry, which the front merges with
// every other shard's into one /metrics exposition.
func (c *Core) Metrics() *metrics.Registry { return c.metrics.reg }

// registerCollectors installs the scrape-time sample producers.
func (c *Core) registerCollectors() {
	c.metrics.reg.RegisterCollector(c.collectRegistries)
	c.metrics.reg.RegisterCollector(c.collectSessions)
	c.metrics.reg.RegisterCollector(c.collectStreams)
	c.metrics.reg.RegisterCollector(c.collectIngest)
}

// collectRegistries emits the live-resource counts.
func (c *Core) collectRegistries(emit func(metrics.Sample)) {
	c.mu.RLock()
	counts := []struct {
		kind string
		n    int
	}{
		{"policies", len(c.policies)},
		{"datasets", len(c.datasets)},
		{"sessions", len(c.sessions)},
		{"streams", len(c.streams)},
	}
	c.mu.RUnlock()
	for _, ct := range counts {
		emit(metrics.Sample{
			Name: "blowfish_resources", Help: "Live registry entries by kind.",
			Kind:   metrics.KindGauge,
			Labels: []metrics.Label{{Name: "kind", Value: ct.kind}},
			Value:  float64(ct.n),
		})
	}
}

// collectSessions emits per-session budget spent/remaining gauges. The
// accountant reads are atomic snapshots; the series set tracks the live
// session registry (bounded by the TTL sweeper).
func (c *Core) collectSessions(emit func(metrics.Sample)) {
	for _, e := range snapshotSorted(c, c.sessions, func(e *sessionEntry) string { return e.id }) {
		acct := e.sess.Accountant()
		labels := []metrics.Label{
			{Name: "session", Value: e.id},
			{Name: "policy", Value: e.policyID},
		}
		emit(metrics.Sample{
			Name: "blowfish_session_budget_spent",
			Help: "Privacy budget (epsilon) charged so far, per session.",
			Kind: metrics.KindGauge, Labels: labels, Value: acct.Spent(),
		})
		emit(metrics.Sample{
			Name: "blowfish_session_budget_remaining",
			Help: "Privacy budget (epsilon) left, per session.",
			Kind: metrics.KindGauge, Labels: labels, Value: acct.Remaining(),
		})
	}
}

// collectStreams emits per-stream progress: epoch lag (now − last epoch
// close), buffered releases, long-poll waiters, remaining budget.
func (c *Core) collectStreams(emit func(metrics.Sample)) {
	now := time.Now()
	for _, e := range snapshotSorted(c, c.streams, func(e *streamEntry) string { return e.id }) {
		st := e.st.Status()
		labels := []metrics.Label{{Name: "stream", Value: e.id}}
		emit(metrics.Sample{
			Name: "blowfish_stream_epoch_lag_seconds",
			Help: "Time since the stream's last successful epoch close.",
			Kind: metrics.KindGauge, Labels: labels,
			Value: now.Sub(st.LastClose).Seconds(),
		})
		emit(metrics.Sample{
			Name: "blowfish_stream_epoch",
			Help: "Epochs closed so far, per stream.",
			Kind: metrics.KindGauge, Labels: labels, Value: float64(st.Epoch),
		})
		emit(metrics.Sample{
			Name: "blowfish_stream_waiters",
			Help: "Long-poll release-cursor readers currently parked, per stream.",
			Kind: metrics.KindGauge, Labels: labels, Value: float64(st.Waiters),
		})
		emit(metrics.Sample{
			Name: "blowfish_stream_releases_buffered",
			Help: "Releases held in the stream's in-memory buffer.",
			Kind: metrics.KindGauge, Labels: labels, Value: float64(st.Releases),
		})
		emit(metrics.Sample{
			Name: "blowfish_stream_budget_remaining",
			Help: "Privacy budget (epsilon) left on the stream's session.",
			Kind: metrics.KindGauge, Labels: labels, Value: st.Remaining,
		})
	}
}

// collectIngest emits every dataset's event cursor.
func (c *Core) collectIngest(emit func(metrics.Sample)) {
	for _, e := range snapshotSorted(c, c.datasets, func(e *datasetEntry) string { return e.id }) {
		emit(metrics.Sample{
			Name: "blowfish_ingest_processed_seq",
			Help: "Highest event sequence number applied, per dataset.",
			Kind: metrics.KindGauge, Labels: []metrics.Label{{Name: "dataset", Value: e.id}},
			Value: float64(e.tbl.LastSeq()),
		})
	}
}
