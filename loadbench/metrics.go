package main

import (
	"time"
)

// Route patterns of the server's blowfish_http_request_seconds family.
var routes = [numOps]string{
	opRange:      "POST /v1/sessions/{id}/releases/range",
	opHistogram:  "POST /v1/sessions/{id}/releases/histogram",
	opCumulative: "POST /v1/sessions/{id}/releases/cumulative",
	opBudgetRead: "GET /v1/sessions/{id}",
	opIngest:     "POST /v1/datasets/{id}/events",
	opEpoch:      "POST /v1/streams/{id}/epochs",
}

// latencies returns, in schedule order, the latencies of the successful
// requests whose op keep accepts.
func latencies(reqs []request, ph *phaseResult, keep func(opClass) bool) []time.Duration {
	var out []time.Duration
	for i := range reqs {
		if o := &ph.out[i]; o.err == nil && keep(reqs[i].op) {
			out = append(out, o.latency(&reqs[i]))
		}
	}
	return out
}

// sliceOps is the number of requests per slice of slicedPercentile: ten
// samples lie beyond each slice's p99.
const sliceOps = 1000

// slicedPercentile splits latencies, in schedule order, into consecutive
// slices of sliceOps requests (the remainder joins the last slice), takes
// the q-quantile of each slice and returns their median in ms. One stall
// moves one slice's value, not the run's, so a run's result reflects the
// server rather than the worst moment of a shared machine.
func slicedPercentile(lat []time.Duration, q float64) float64 {
	n := max(1, len(lat)/sliceOps)
	var per []float64
	for k := 0; k < n; k++ {
		end := (k + 1) * sliceOps
		if k == n-1 {
			end = len(lat)
		}
		slice := append([]time.Duration(nil), lat[k*sliceOps:end]...)
		per = append(per, ms(percentile(sortDurations(slice), q)))
	}
	return medianFloat(per)
}

type layerInputs struct {
	w         workload
	reqs      []request
	win       *phaseResult
	d         exposition // /metrics diff across the window
	after     exposition // /metrics at the window end
	ok        int        // successful window requests
	publish   []time.Duration
	polls     [2]int  // window polls, and those that returned a release
	queueMax  float64 // ingest queue depth, sampled at 10 Hz
	ledgerMax int
	recoverS  float64
	rss       float64 // server peak resident set, MiB
}

// layerMetrics attributes the window's time and work to the layers a
// request crosses: the generator, the network and HTTP stack, the HTTP
// front, the shard router, the service, the engine, the WAL, the ingest
// stream and the Go runtime. Metrics of a layer a workload does not reach
// read 0.
func layerMetrics(in layerInputs) []metric {
	d, ops := in.d, float64(in.ok)
	perOp := func(v float64) float64 { return v / ops }

	var lagSum, latSum time.Duration
	var lags []time.Duration
	bytes, backlog := 0, 0
	last := in.reqs[len(in.reqs)-1].due
	for i := range in.reqs {
		r, o := &in.reqs[i], &in.win.out[i]
		if o.err != nil {
			continue
		}
		lags = append(lags, o.lag(r))
		lagSum += o.lag(r)
		latSum += o.latency(r)
		bytes += o.bytes
		if o.sent > last {
			backlog++ // due by the end of the schedule but not yet sent
		}
	}
	sortDurations(lags)

	// Handler time of the scheduled routes, from the server's own histogram.
	// Session releases cross the front and then the engine; the front's self
	// time is the handler time those routes spent outside the engine.
	var handlerSum, handlerCount, releaseHandler, releaseCount, releaseEngine float64
	for op, route := range routes {
		m := map[string]string{"route": route}
		sum, count := d.sum("blowfish_http_request_seconds_sum", m), d.sum("blowfish_http_request_seconds_count", m)
		handlerSum, handlerCount = handlerSum+sum, handlerCount+count
		if opClass(op).isRelease() {
			releaseHandler, releaseCount = releaseHandler+sum, releaseCount+count
			releaseEngine += d.sum("blowfish_release_seconds_sum", map[string]string{"kind": opNames[op]})
		}
	}
	handlerMean := 0.0
	if handlerCount > 0 {
		handlerMean = handlerSum / handlerCount
	}
	clientMean := latSum.Seconds() / ops
	residual := clientMean - lagSum.Seconds()/ops - handlerMean
	frontSelf := 0.0
	if releaseCount > 0 {
		frontSelf = (releaseHandler - releaseEngine) / releaseCount * 1e6
	}

	engineMean, releases := d.histMean("blowfish_release_seconds", nil)
	kindMean := func(kind string) float64 {
		m, _ := d.histMean("blowfish_release_seconds", map[string]string{"kind": kind})
		return m * 1e6
	}
	noisePerRelease := 0.0
	if releases > 0 {
		noisePerRelease = d.sum("blowfish_noise_draws_total", nil) / releases
	}

	// A shard that serves no session exposes no release series, so the mean
	// is over the configured shard count.
	skew := 1.0
	if in.w.shards > 1 {
		top, sum := 0.0, 0.0
		for _, v := range d.byLabel("blowfish_releases_total", "shard") {
			top, sum = max(top, v), sum+v
		}
		if sum > 0 {
			skew = top / (sum / float64(in.w.shards))
		}
	}

	fsyncMean, fsyncs := d.histMean("blowfish_wal_fsync_seconds", nil)
	applyMean, _ := d.histMean("blowfish_ingest_apply_seconds", nil)
	eventsPerBatch := 0.0
	if b := d.sum("blowfish_ingest_batches_total", nil); b > 0 {
		eventsPerBatch = d.sum("blowfish_ingest_events_total", nil) / b
	}
	eventsHandler, _ := d.histMean("blowfish_http_request_seconds", map[string]string{"route": routes[opIngest]})
	usefulPolls := 0.0
	if in.polls[0] > 0 {
		usefulPolls = float64(in.polls[1]) / float64(in.polls[0])
	}
	queueMax := max(in.queueMax, in.after.max("blowfish_ingest_queue_depth"))
	replayRecords := 0.0
	if in.w.durable {
		replayRecords = in.after.sum("blowfish_wal_appends_total", nil)
	}

	pct := func(ops func(opClass) bool, q float64) float64 {
		return ms(percentile(sortDurations(latencies(in.reqs, in.win, ops)), q))
	}
	isOp := func(want opClass) func(opClass) bool { return func(o opClass) bool { return o == want } }
	isRelease := func(o opClass) bool { return o.isRelease() }

	return []metric{
		{"gen_send_lag_p99_ms", ms(percentile(lags, 0.99)), "ms"},
		{"gen_backlog_end", float64(backlog), "count"},
		{"gen_resp_bytes_mean", float64(bytes) / ops, "bytes"},
		{"net_residual_us_mean", residual * 1e6, "us"},
		{"net_residual_share", residual / clientMean, "ratio"},
		{"release_p50_ms", pct(isRelease, 0.50), "ms"},
		{"release_p99_ms", pct(isRelease, 0.99), "ms"},
		{"budget_read_p50_ms", pct(isOp(opBudgetRead), 0.50), "ms"},
		{"budget_read_p99_ms", pct(isOp(opBudgetRead), 0.99), "ms"},
		{"ingest_ack_p50_ms", pct(isOp(opIngest), 0.50), "ms"},
		{"ingest_ack_p99_ms", pct(isOp(opIngest), 0.99), "ms"},
		{"epoch_close_p50_ms", pct(isOp(opEpoch), 0.50), "ms"},
		{"epoch_publish_p50_ms", ms(percentile(in.publish, 0.50)), "ms"},
		{"epoch_publish_p95_ms", ms(percentile(in.publish, 0.95)), "ms"},
		{"server_handler_us_mean", handlerMean * 1e6, "us"},
		{"server_self_us_per_release", frontSelf, "us"},
		{"server_events_handler_us_mean", eventsHandler * 1e6, "us"},
		{"engine_release_us_mean", engineMean * 1e6, "us"},
		{"engine_histogram_us_mean", kindMean("histogram"), "us"},
		{"engine_cumulative_us_mean", kindMean("cumulative"), "us"},
		{"engine_range_us_mean", kindMean("range"), "us"},
		{"engine_noise_draws_per_release", noisePerRelease, "count"},
		{"shard_skew", skew, "ratio"},
		{"service_ledger_len_max", float64(in.ledgerMax), "count"},
		{"wal_fsync_us_mean", fsyncMean * 1e6, "us"},
		{"wal_fsyncs_per_op", perOp(fsyncs), "count"},
		{"wal_appends_per_op", perOp(d.sum("blowfish_wal_appends_total", nil)), "count"},
		{"wal_bytes_per_op", perOp(d.sum("blowfish_wal_bytes_total", nil)), "bytes"},
		{"wal_replay_records", replayRecords, "count"},
		{"recover_s", in.recoverS, "s"},
		{"ingest_apply_us_mean", applyMean * 1e6, "us"},
		{"ingest_events_per_batch", eventsPerBatch, "count"},
		{"ingest_queue_full", d.sum("blowfish_ingest_queue_full_total", nil), "count"},
		{"ingest_queue_depth_max", queueMax, "count"},
		{"stream_useful_poll_ratio", usefulPolls, "ratio"},
		// Runtime families are process-wide; a sharded server repeats them
		// once per shard, so take one copy rather than the sum.
		{"runtime_alloc_bytes_per_op", perOp(d.max("go_memstats_total_alloc_bytes_total")), "bytes"},
		{"runtime_gc_per_kop", perOp(d.max("go_gc_cycles_total")) * 1000, "count"},
		{"runtime_heap_mb_end", in.after.max("go_memstats_heap_alloc_bytes") / (1 << 20), "MiB"},
		{"server_peak_rss_mb", in.rss, "MiB"},
	}
}
