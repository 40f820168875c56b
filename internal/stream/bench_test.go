// Benchmarks for the streaming subsystem at the BENCH_stream.json workload:
// n = 200k tuples over |T| ≈ 4k, the adult capital-loss shape used by the
// engine benchmarks. BenchmarkStreamIngest measures sustained ingestion
// (one op = one event, wire row → encoded → numbered → applied through the
// index under the amortized lock, all by Table.Ingest on the calling
// goroutine); BenchmarkStreamIngestUpsertCumulative is
// the same path at loadbench's ingest-stream shape, into an index a
// cumulative stream reads; BenchmarkEpochRelease measures epoch close
// latency over the 200k-row index while event producers and release
// pollers run concurrently. Results are recorded in BENCH_stream.json.
package stream

import (
	"sync"
	"testing"
	"time"

	"blowfish/internal/composition"
	"blowfish/internal/domain"
	"blowfish/internal/engine"
	"blowfish/internal/metrics"
	"blowfish/internal/noise"
	"blowfish/internal/ordered"
	"blowfish/internal/policy"
	"blowfish/internal/secgraph"
)

const (
	benchDomainSize = 4357
	benchTuples     = 200_000
	benchEps        = 1e-6
	benchBudget     = 1e9
)

// benchWorld builds the engine and table over the benchmark policy, with
// preload tuples already indexed.
func benchWorld(b *testing.B, preload int) (*engine.Engine, *Table) {
	b.Helper()
	return benchWorldSize(b, benchDomainSize, preload)
}

// benchWorldSize is benchWorld over a line of size values.
func benchWorldSize(b *testing.B, size, preload int) (*engine.Engine, *Table) {
	b.Helper()
	d, err := domain.Line("v", size)
	if err != nil {
		b.Fatal(err)
	}
	g, err := secgraph.NewDistanceThreshold(d, 100)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := engine.Compile(policy.New(g))
	if err != nil {
		b.Fatal(err)
	}
	acct, err := composition.NewAccountant(benchBudget)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := engine.New(plan, acct, noise.NewSource(1))
	if err != nil {
		b.Fatal(err)
	}
	ds := domain.NewDataset(d)
	src := noise.NewSource(2)
	for i := 0; i < preload; i++ {
		ds.MustAdd(domain.Point(src.Int63n(int64(size))))
	}
	tbl, err := NewTable(ds)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := eng.Index(ds)
	if err != nil {
		b.Fatal(err)
	}
	tbl.BindIndex(idx)
	// Prime the count vectors so the first measured op is steady-state.
	if _, err := idx.Histogram(); err != nil {
		b.Fatal(err)
	}
	return eng, tbl
}

// benchEvents pre-builds wire events cycling through the domain.
func benchEvents(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Op: "append", Row: []int{(i * 31) % benchDomainSize}}
	}
	return evs
}

// ingestAll ingests n events through tbl, in batches of evs (the last one
// cut short), failing the benchmark on any refusal.
func ingestAll(b *testing.B, tbl *Table, evs []Event, n int) {
	for done := 0; done < n; done += len(evs) {
		res, err := tbl.Ingest(evs[:min(len(evs), n-done)])
		if err != nil {
			b.Fatal(err)
		}
		if res.Rejected != 0 {
			b.Fatalf("%d events rejected: %v", res.Rejected, res.LastErr)
		}
	}
}

// BenchmarkStreamIngest measures sustained event throughput: one op is one
// appended event, ingested in 1024-event batches, each applied through the
// lock-amortized index path before Ingest returns. events/sec = 1e9 /
// ns_per_op.
func BenchmarkStreamIngest(b *testing.B) {
	_, tbl := benchWorld(b, 0)
	evs := benchEvents(1024)
	b.ResetTimer()
	ingestAll(b, tbl, evs, b.N)
}

// BenchmarkStreamIngestMetrics is BenchmarkStreamIngest with the ingest
// instruments installed: the benchgate holds the instrumentation overhead
// (one histogram observation + three counter bumps per applied batch,
// after the table lock is released) inside the hot-path regression
// threshold.
func BenchmarkStreamIngestMetrics(b *testing.B) {
	reg := metrics.NewRegistry()
	im := &IngestMetrics{
		ApplySeconds:    reg.Histogram("apply_seconds", "bench", nil),
		Batches:         reg.Counter("batches_total", "bench"),
		Events:          reg.Counter("events_total", "bench"),
		Rejected:        reg.Counter("rejected_total", "bench"),
		JournalFailures: reg.Counter("journal_failures_total", "bench"),
	}
	_, tbl := benchWorld(b, 0)
	tbl.SetMetrics(im)
	evs := benchEvents(1024)
	b.ResetTimer()
	ingestAll(b, tbl, evs, b.N)
	if got := int(im.Events.Value()); got != b.N {
		b.Fatalf("instruments counted %d events, want %d", got, b.N)
	}
}

// BenchmarkStreamIngestUpsertCumulative measures ingest at loadbench's
// ingest-stream shape: 200k rows over a 1,024-value line, a histogram +
// cumulative stream primed with one epoch close (so the index serves
// cumulative counts), and 256-event batches of 80% upserts of existing
// tuples and 20% appends. One op is one event.
func BenchmarkStreamIngestUpsertCumulative(b *testing.B) {
	const size, chunk = 1024, 256
	eng, tbl := benchWorldSize(b, size, benchTuples)
	st, err := New(eng, tbl, Config{Epsilon: benchEps, Kinds: []ReleaseKind{KindHistogram, KindCumulative}})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Stop()
	if _, err := st.CloseEpoch(); err != nil {
		b.Fatal(err)
	}
	evs := make([]Event, chunk)
	for i := range evs {
		row := []int{(i * 31) % size}
		if i%5 == 4 {
			evs[i] = Event{Op: "append", Row: row}
		} else {
			evs[i] = Event{Op: "upsert", ID: (i * 7919) % benchTuples, Row: row}
		}
	}
	b.ResetTimer()
	ingestAll(b, tbl, evs, b.N)
}

// BenchmarkStreamIngestParallel is the same workload ingested from
// GOMAXPROCS goroutines: each batch contends for the table's write lock.
func BenchmarkStreamIngestParallel(b *testing.B) {
	_, tbl := benchWorld(b, 0)
	const chunk = 256
	evs := benchEvents(chunk)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for {
			n := 0
			for n < chunk && pb.Next() {
				n++
			}
			if n == 0 {
				return
			}
			if _, err := tbl.Ingest(evs[:n]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkEpochRelease measures epoch-close latency (histogram kind) over
// a 200k-row dataset while a producer keeps appending events and a poller
// keeps draining the release cursor — the continual-observation steady
// state. ns_per_op approximates p50 release latency.
func BenchmarkEpochRelease(b *testing.B) {
	eng, tbl := benchWorld(b, benchTuples)
	st, err := New(eng, tbl, Config{Epsilon: benchEps})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Stop()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // concurrent producer
		defer wg.Done()
		evs := benchEvents(256)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := tbl.Ingest(evs); err != nil {
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	go func() { // concurrent poller
		defer wg.Done()
		var since uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, rel := range st.Releases(since) {
				since = rel.Seq
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.CloseEpoch(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// BenchmarkEpochReleaseAllKinds closes epochs publishing all three release
// kinds per close (histogram + cumulative + range) over the 200k-row index.
func BenchmarkEpochReleaseAllKinds(b *testing.B) {
	eng, tbl := benchWorld(b, benchTuples)
	st, err := New(eng, tbl, Config{
		Epsilon:      benchEps,
		Kinds:        []ReleaseKind{KindHistogram, KindCumulative, KindRange},
		RangeQueries: []ordered.RangeQuery{{Lo: 100, Hi: 2500}},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.CloseEpoch(); err != nil {
			b.Fatal(err)
		}
	}
}
