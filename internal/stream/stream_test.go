package stream

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"blowfish/internal/composition"
	"blowfish/internal/domain"
	"blowfish/internal/engine"
	"blowfish/internal/leak"
	"blowfish/internal/noise"
	"blowfish/internal/ordered"
	"blowfish/internal/policy"
	"blowfish/internal/secgraph"
)

// fixture wires a distance-threshold line policy, a seeded sequential
// engine and a table — the deterministic test harness.
type fixture struct {
	eng *engine.Engine
	tbl *Table
	ds  *domain.Dataset
}

func newFixture(t *testing.T, size int, budget float64, seed int64) *fixture {
	t.Helper()
	d, err := domain.Line("v", size)
	if err != nil {
		t.Fatal(err)
	}
	g, err := secgraph.NewDistanceThreshold(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := engine.Compile(policy.New(g))
	if err != nil {
		t.Fatal(err)
	}
	acct, err := composition.NewAccountant(budget)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(plan, acct, noise.NewSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	ds := domain.NewDataset(d)
	tbl, err := NewTable(ds)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{eng: eng, tbl: tbl, ds: ds}
}

func (f *fixture) stream(t *testing.T, cfg Config) *Stream {
	t.Helper()
	st, err := New(f.eng, f.tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Stop)
	return st
}

func appends(vals ...int) []Event {
	evs := make([]Event, len(vals))
	for i, v := range vals {
		evs[i] = Event{Op: "append", Row: []int{v}}
	}
	return evs
}

func mustIngest(t *testing.T, tbl *Table, evs []Event) IngestResult {
	t.Helper()
	res, err := tbl.Ingest(evs)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if res.Rejected != 0 {
		t.Fatalf("Ingest rejected %d events: %v", res.Rejected, res.LastErr)
	}
	return res
}

// TestIngestAppliesEvents pins the event log semantics: appends, upserts
// and deletes land on the dataset in submission order before Ingest
// returns, with sequence numbers assigned densely.
func TestIngestAppliesEvents(t *testing.T) {
	f := newFixture(t, 16, 100, 1)
	if res := mustIngest(t, f.tbl, appends(3, 5, 5, 7)); res.First != 1 || res.Last != 4 {
		t.Fatalf("seqs = [%d,%d], want [1,4]", res.First, res.Last)
	}
	if n := f.tbl.Len(); n != 4 {
		t.Fatalf("Len after Ingest = %d, want 4", n)
	}
	if res := mustIngest(t, f.tbl, []Event{
		{Op: "upsert", ID: 0, Row: []int{9}},
		{Op: "delete", ID: 1},
	}); res.First != 5 || res.Last != 6 {
		t.Fatalf("seqs = [%d,%d], want [5,6]", res.First, res.Last)
	}
	f.tbl.RLock()
	got, err := f.ds.Histogram()
	f.tbl.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	// Started [3 5 5 7]; upsert(0,9) → [9 5 5 7]; delete(1) swaps 7 in →
	// [9 7 5].
	want := map[int]float64{9: 1, 7: 1, 5: 1}
	for v, c := range want {
		if got[v] != c {
			t.Fatalf("hist[%d] = %v, want %v (hist %v)", v, got[v], c, got)
		}
	}
	if n := f.tbl.Len(); n != 3 {
		t.Fatalf("Len = %d, want 3", n)
	}
	if a := f.tbl.Applied(); a != 6 {
		t.Fatalf("Applied = %d, want 6", a)
	}
}

// TestIngestRejectsPoisonEvents asserts a bad tuple id is counted and
// skipped without wedging the events behind it, and that a malformed row or
// op refuses its batch.
func TestIngestRejectsPoisonEvents(t *testing.T) {
	f := newFixture(t, 16, 100, 1)
	res, err := f.tbl.Ingest([]Event{
		{Op: "append", Row: []int{1}},
		{Op: "delete", ID: 99}, // out of range at apply time
		{Op: "append", Row: []int{2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := f.tbl.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2 (poison event wedged the stream?)", n)
	}
	if res.First != 1 || res.Last != 3 || res.Rejected != 1 || res.LastErr == nil {
		t.Fatalf("result = %+v, want seqs [1,3] with 1 rejection and its error", res)
	}
	if _, err := f.tbl.Ingest([]Event{{Op: "append", Row: []int{999}}}); err == nil {
		t.Fatal("out-of-domain append accepted")
	}
	if _, err := f.tbl.Ingest([]Event{{Op: "compact"}}); err == nil {
		t.Fatal("unknown op accepted")
	}
	if n, seq := f.tbl.Len(), f.tbl.LastSeq(); n != 2 || seq != 3 {
		t.Fatalf("after refused batches: Len %d, LastSeq %d, want 2 and 3", n, seq)
	}
}

// TestIngestClose pins the order an epoch close sees: with no flush step
// anywhere, a close counts exactly the events whose Ingest returned before
// it, and a batch ingested after it waits for the next close.
func TestIngestClose(t *testing.T) {
	f := newFixture(t, 16, 100, 1)
	st := f.stream(t, Config{Epsilon: 0.1})
	mustIngest(t, f.tbl, appends(1, 2, 3))
	rel, err := st.CloseEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if rel.Events != 3 || rel.N != 3 {
		t.Fatalf("first close counts %d events and %d rows, want 3 and 3", rel.Events, rel.N)
	}
	mustIngest(t, f.tbl, appends(4, 5))
	if rel, err = st.CloseEpoch(); err != nil {
		t.Fatal(err)
	}
	if rel.Events != 5 || rel.N != 5 {
		t.Fatalf("second close counts %d events and %d rows, want 5 and 5", rel.Events, rel.N)
	}
}

// TestEpochReleasesReproducible pins the acceptance criterion: a seeded
// single-shard engine replaying the same events and epoch closes produces
// bit-for-bit identical releases.
func TestEpochReleasesReproducible(t *testing.T) {
	run := func() []*EpochRelease {
		f := newFixture(t, 64, 100, 42)
		st := f.stream(t, Config{
			Epsilon:      0.5,
			Kinds:        []ReleaseKind{KindHistogram, KindCumulative, KindRange},
			RangeQueries: []ordered.RangeQuery{{Lo: 3, Hi: 17}, {Lo: 0, Hi: 63}},
		})
		mustIngest(t, f.tbl, appends(1, 5, 9, 9, 30))
		if _, err := st.CloseEpoch(); err != nil {
			t.Fatalf("CloseEpoch: %v", err)
		}
		mustIngest(t, f.tbl, appends(12, 12, 40))
		if _, err := st.CloseEpoch(); err != nil {
			t.Fatalf("CloseEpoch: %v", err)
		}
		return st.Releases(0)
	}
	a, b := run(), run()
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("releases = %d/%d, want 2/2", len(a), len(b))
	}
	for i := range a {
		for j := range a[i].Histogram {
			if a[i].Histogram[j] != b[i].Histogram[j] {
				t.Fatalf("release %d: hist[%d] differs: %v vs %v", i, j, a[i].Histogram[j], b[i].Histogram[j])
			}
		}
		for j := range a[i].CumulativeRaw {
			if a[i].CumulativeRaw[j] != b[i].CumulativeRaw[j] {
				t.Fatalf("release %d: cum[%d] differs", i, j)
			}
		}
		for j := range a[i].RangeAnswers {
			if a[i].RangeAnswers[j] != b[i].RangeAnswers[j] {
				t.Fatalf("release %d: range[%d] differs", i, j)
			}
		}
	}
}

// TestBudgetExhaustion pins the other acceptance criterion: a stream
// refuses epoch closes past budget exhaustion with an error wrapping
// ErrBudgetExceeded, stays exhausted, and wakes long-pollers.
func TestBudgetExhaustion(t *testing.T) {
	// Budget 1.0, two kinds at ε=0.25 per epoch → 0.5 per close → exactly
	// two epochs fit.
	f := newFixture(t, 64, 1.0, 7)
	st := f.stream(t, Config{Epsilon: 0.25, Kinds: []ReleaseKind{KindHistogram, KindCumulative}})
	mustIngest(t, f.tbl, appends(1, 2, 3))
	for i := 0; i < 2; i++ {
		if _, err := st.CloseEpoch(); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
	}
	if _, err := st.CloseEpoch(); !errors.Is(err, composition.ErrBudgetExceeded) {
		t.Fatalf("third close = %v, want ErrBudgetExceeded", err)
	}
	s := st.Status()
	if !s.Exhausted || s.Epoch != 2 {
		t.Fatalf("status = %+v, want exhausted at epoch 2", s)
	}
	// A long-poll past the end returns the budget error instead of hanging.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := st.WaitReleases(ctx, s.LastSeq); !errors.Is(err, composition.ErrBudgetExceeded) {
		t.Fatalf("WaitReleases past exhaustion = %v, want ErrBudgetExceeded", err)
	}
}

// TestExplicitScheduleExhausts pins the finite-schedule terminal state: an
// Epsilons list with no base Epsilon to fall back to exhausts the stream
// when it runs out, with the same ErrBudgetExceeded signal budget
// exhaustion gives — the ticker stops and pollers are told it is over.
func TestExplicitScheduleExhausts(t *testing.T) {
	f := newFixture(t, 16, 100, 1)
	st := f.stream(t, Config{Epsilons: []float64{0.5, 0.25}})
	mustIngest(t, f.tbl, appends(1, 2))
	for i := 0; i < 2; i++ {
		if _, err := st.CloseEpoch(); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
	}
	if _, err := st.CloseEpoch(); !errors.Is(err, composition.ErrBudgetExceeded) {
		t.Fatalf("close past schedule = %v, want ErrBudgetExceeded", err)
	}
	if s := st.Status(); !s.Exhausted {
		t.Fatalf("status = %+v, want exhausted", s)
	}
}

// TestReleasesCursorOverflow pins the cursor arithmetic against hostile
// values: a cursor far past the buffer returns nothing, never panics.
func TestReleasesCursorOverflow(t *testing.T) {
	f := newFixture(t, 16, 100, 1)
	st := f.stream(t, Config{Epsilon: 0.1})
	mustIngest(t, f.tbl, appends(1))
	if _, err := st.CloseEpoch(); err != nil {
		t.Fatal(err)
	}
	for _, since := range []uint64{1, 2, 1 << 40, ^uint64(0)} {
		if rels := st.Releases(since); len(rels) != 0 {
			t.Fatalf("Releases(%d) = %d releases, want 0", since, len(rels))
		}
	}
	if rels := st.Releases(0); len(rels) != 1 {
		t.Fatalf("Releases(0) = %d, want 1", len(rels))
	}
}

// TestEpsilonSchedule pins the explicit-override and decay arithmetic.
func TestEpsilonSchedule(t *testing.T) {
	f := newFixture(t, 16, 100, 1)
	st := f.stream(t, Config{Epsilon: 0.4, Decay: 0.5, Epsilons: []float64{1.0}})
	mustIngest(t, f.tbl, appends(1))
	want := []float64{1.0, 0.4 * 0.5, 0.4 * 0.25}
	for i, w := range want {
		rel, err := st.CloseEpoch()
		if err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
		if rel.Epsilon != w {
			t.Fatalf("epoch %d epsilon = %v, want %v", i, rel.Epsilon, w)
		}
	}
}

// TestTumblingWindow asserts each epoch covers only its own events.
func TestTumblingWindow(t *testing.T) {
	f := newFixture(t, 16, 100, 3)
	st := f.stream(t, Config{Window: WindowTumbling, Epsilon: 1})
	mustIngest(t, f.tbl, appends(1, 2, 3, 4, 5))
	rel, err := st.CloseEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if rel.N != 5 {
		t.Fatalf("epoch 0 N = %d, want 5", rel.N)
	}
	mustIngest(t, f.tbl, appends(7, 8))
	rel, err = st.CloseEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if rel.N != 2 {
		t.Fatalf("epoch 1 N = %d, want 2 (tumbling reset failed)", rel.N)
	}
}

// TestSlidingWindow asserts tuples expire once they age past the width.
func TestSlidingWindow(t *testing.T) {
	f := newFixture(t, 16, 100, 3)
	st := f.stream(t, Config{Window: WindowSliding, WindowEpochs: 2, Epsilon: 1})
	mustIngest(t, f.tbl, appends(1, 2, 3, 4))
	rel, err := st.CloseEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if rel.N != 4 {
		t.Fatalf("epoch 0 N = %d, want 4", rel.N)
	}
	mustIngest(t, f.tbl, appends(5, 6))
	rel, err = st.CloseEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if rel.N != 6 {
		t.Fatalf("epoch 1 N = %d, want 6 (window [0,1])", rel.N)
	}
	mustIngest(t, f.tbl, appends(7))
	rel, err = st.CloseEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if rel.N != 3 {
		t.Fatalf("epoch 2 N = %d, want 3 (epoch-0 tuples expired)", rel.N)
	}
}

// TestWaitReleasesLongPoll asserts a blocked reader wakes on the next
// epoch close and receives everything past its cursor.
func TestWaitReleasesLongPoll(t *testing.T) {
	f := newFixture(t, 16, 100, 5)
	st := f.stream(t, Config{Epsilon: 0.1})
	mustIngest(t, f.tbl, appends(1, 2))
	got := make(chan []*EpochRelease, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rels, err := st.WaitReleases(ctx, 0)
		if err != nil {
			t.Errorf("WaitReleases: %v", err)
		}
		got <- rels
	}()
	time.Sleep(10 * time.Millisecond) // let the poller block
	if _, err := st.CloseEpoch(); err != nil {
		t.Fatal(err)
	}
	select {
	case rels := <-got:
		if len(rels) != 1 || rels[0].Seq != 1 {
			t.Fatalf("long-poll returned %d releases (first seq %d), want 1 @ seq 1", len(rels), rels[0].Seq)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll never woke")
	}
}

// TestAutomaticScheduler exercises Start/Stop: epochs close on the ticker
// until the budget runs out, and Stop leaves no goroutine behind (the
// -race build would catch unsynchronized stragglers).
func TestAutomaticScheduler(t *testing.T) {
	f := newFixture(t, 16, 0.3, 5)
	st := f.stream(t, Config{Epsilon: 0.1, Interval: time.Millisecond})
	mustIngest(t, f.tbl, appends(1, 2, 3))
	st.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := st.WaitReleases(ctx, 0); err != nil {
		t.Fatalf("no automatic release arrived: %v", err)
	}
	// Budget 0.3 at ε=0.1 → exactly three closes, then the ticker stops
	// itself; give it time to hit the wall.
	deadline := time.Now().Add(10 * time.Second)
	for st.Status().Epoch < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st.Stop()
	if got := st.Status().Epoch; got != 3 {
		t.Fatalf("epochs closed = %d, want 3", got)
	}
}

// TestConfigValidation asserts unserveable configurations fail at New.
func TestConfigValidation(t *testing.T) {
	f := newFixture(t, 16, 100, 1)
	bad := []Config{
		{},                                  // no epsilon schedule
		{Epsilon: 1, Window: "hopping"},     // unknown window
		{Epsilon: 1, Window: WindowSliding}, // sliding without width
		{Epsilon: 1, Kinds: []ReleaseKind{"quantile"}},
		{Epsilon: 1, Kinds: []ReleaseKind{KindRange}},                                                       // no queries
		{Epsilon: 1, Kinds: []ReleaseKind{KindRange}, RangeQueries: []ordered.RangeQuery{{Lo: 5, Hi: 900}}}, // out of domain
		{Epsilon: 1, Epsilons: []float64{0.5, -1}},                                                          // bad override
	}
	for i, cfg := range bad {
		if _, err := New(f.eng, f.tbl, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestStreamHammer interleaves concurrent event ingestion (appends, and
// batches that append and swap-delete), epoch closes and status reads
// under -race. Values are not asserted beyond internal consistency — the
// point is that no interleaving tears state.
func TestStreamHammer(t *testing.T) {
	leak.Check(t)
	f := newFixture(t, 64, 1e9, 11)
	st := f.stream(t, Config{Epsilon: 0.01, Kinds: []ReleaseKind{KindHistogram, KindCumulative}})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := f.tbl.Ingest(appends(i%64, (i*7)%64)); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // an append and a swap-delete per batch
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			res, err := f.tbl.Ingest([]Event{{Op: "append", Row: []int{i % 64}}, {Op: "delete", ID: 0}})
			if err != nil || res.Rejected != 0 {
				t.Errorf("ingest: %+v %v", res, err)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	wg.Add(1)
	go func() { // status + cursor readers
		defer wg.Done()
		var since uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, rel := range st.Releases(since) {
				if rel.N < 0 || len(rel.Histogram) != 64 {
					t.Errorf("torn release: %+v", rel)
					return
				}
				since = rel.Seq
			}
			_ = st.Status()
			time.Sleep(100 * time.Microsecond)
		}
	}()
	for i := 0; i < 30; i++ {
		if _, err := st.CloseEpoch(); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
		time.Sleep(500 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	// Final consistency: the index must agree with a rebuild after all the
	// interleaving.
	f.tbl.RLock()
	defer f.tbl.RUnlock()
	want, err := f.ds.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	idx, err := f.eng.Index(f.ds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := idx.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hist[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
