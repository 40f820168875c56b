package stream

import (
	"sync"
	"testing"
)

// TestIngestHammerTilesSequences runs concurrent Ingest calls of mixed
// sizes (under -race in CI): every call gets one contiguous range of its
// own, the ranges tile the sequence space from 1, and every event is
// applied by the time the last call returns.
func TestIngestHammerTilesSequences(t *testing.T) {
	f := newFixture(t, 16, 100, 1)
	var mu sync.Mutex
	owner := map[uint64]int{} // seq -> ingesting goroutine
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				evs := appends(make([]int, 1+(g+i)%7)...)
				res, err := f.tbl.Ingest(evs)
				if err != nil {
					t.Errorf("Ingest: %v", err)
					return
				}
				mu.Lock()
				if res.Last-res.First+1 != uint64(len(evs)) {
					t.Errorf("goroutine %d: %d events got range [%d,%d]", g, len(evs), res.First, res.Last)
				}
				for s := res.First; s <= res.Last; s++ {
					if o, dup := owner[s]; dup {
						t.Errorf("seq %d assigned to goroutines %d and %d", s, o, g)
					}
					owner[s] = g
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	total := uint64(len(owner))
	for s := uint64(1); s <= total; s++ {
		if _, ok := owner[s]; !ok {
			t.Fatalf("seq %d never assigned: the ranges do not tile [1,%d]", s, total)
		}
	}
	if got := f.tbl.LastSeq(); got != total {
		t.Fatalf("LastSeq = %d, but %d seqs were handed out", got, total)
	}
	if got := f.ds.Len(); got != int(total) {
		t.Fatalf("dataset has %d rows, want %d ingested events", got, total)
	}
}

// TestIngestValidatesBeforeNumbering asserts a malformed event refuses its
// whole batch before anything is numbered or applied, and that an empty
// batch is a no-op: the first batch accepted afterwards is numbered from 1.
func TestIngestValidatesBeforeNumbering(t *testing.T) {
	f := newFixture(t, 16, 100, 1)
	for _, bad := range [][]Event{
		{{Op: "append", Row: []int{1}}, {Op: "append", Row: []int{999}}},
		{{Op: "append", Row: []int{1}}, {Op: "bogus"}},
		{{Op: "upsert", ID: -1, Row: []int{1}}},
		{{Op: "delete", ID: -1}},
	} {
		if res, err := f.tbl.Ingest(bad); err == nil {
			t.Fatalf("Ingest(%v) accepted: %+v", bad, res)
		}
	}
	if res, err := f.tbl.Ingest(nil); err != nil || res != (IngestResult{}) {
		t.Fatalf("empty batch = (%+v, %v), want nothing", res, err)
	}
	if n, seq := f.tbl.Len(), f.tbl.LastSeq(); n != 0 || seq != 0 {
		t.Fatalf("after refused batches: Len %d, LastSeq %d, want 0 and 0", n, seq)
	}
	if res := mustIngest(t, f.tbl, appends(4)); res.First != 1 || res.Last != 1 {
		t.Fatalf("first accepted batch got seqs [%d,%d], want [1,1]", res.First, res.Last)
	}
}

// TestIngestSteadyStateAllocs pins the pooled encode buffer: once the
// dataset holds the tuples a batch upserts, ingesting that batch again
// allocates nothing.
func TestIngestSteadyStateAllocs(t *testing.T) {
	f := newFixture(t, 16, 100, 1)
	mustIngest(t, f.tbl, appends(make([]int, 64)...))
	evs := make([]Event, 64)
	for i := range evs {
		evs[i] = Event{Op: "upsert", ID: i, Row: []int{i % 16}}
	}
	if allocs := testing.AllocsPerRun(100, func() { mustIngest(t, f.tbl, evs) }); allocs != 0 {
		t.Fatalf("an upsert batch allocates %v times, want 0", allocs)
	}
}
