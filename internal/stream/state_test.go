package stream

import (
	"errors"
	"testing"
	"time"

	"blowfish/internal/composition"
	"blowfish/internal/domain"
	"blowfish/internal/engine"
	"blowfish/internal/metrics"
	"blowfish/internal/noise"
	"blowfish/internal/policy"
	"blowfish/internal/secgraph"
)

func lineEngine(t *testing.T, size int, budget float64, seed int64) (*engine.Engine, *domain.Domain) {
	t.Helper()
	dom := domain.MustLine("v", size)
	pol := policy.New(secgraph.NewComplete(dom))
	plan, err := engine.Compile(pol)
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
	return eng, dom
}

func TestApplyLoggedJournalAndCursor(t *testing.T) {
	_, dom := lineEngine(t, 8, 10, 1)
	ds := domain.NewDataset(dom)
	tbl, err := NewTable(ds)
	if err != nil {
		t.Fatal(err)
	}
	var journaled []uint64
	tbl.SetJournal(func(firstSeq uint64, muts []engine.Mutation) error {
		journaled = append(journaled, firstSeq, firstSeq+uint64(len(muts))-1)
		return nil
	})
	muts := []engine.Mutation{
		{Op: engine.MutAdd, P: 1},
		{Op: engine.MutAdd, P: 2},
		{Op: engine.MutAdd, P: 3},
	}
	applied, rejected, err := tbl.ApplyLogged(1, muts)
	if applied != 3 || rejected != 0 || err != nil {
		t.Fatalf("ApplyLogged = (%d, %d, %v)", applied, rejected, err)
	}
	if got := tbl.LastSeq(); got != 3 {
		t.Fatalf("LastSeq = %d, want 3", got)
	}
	if len(journaled) != 2 || journaled[0] != 1 || journaled[1] != 3 {
		t.Fatalf("journal saw %v, want [1 3]", journaled)
	}
	// A poison mutation is skipped; the cursor still covers the batch.
	muts = []engine.Mutation{
		{Op: engine.MutAdd, P: 4},
		{Op: engine.MutRemove, Index: 99}, // out of range
		{Op: engine.MutAdd, P: 5},
	}
	applied, rejected, err = tbl.ApplyLogged(4, muts)
	if applied != 2 || rejected != 1 || err == nil {
		t.Fatalf("poison batch = (%d, %d, %v)", applied, rejected, err)
	}
	if got := tbl.LastSeq(); got != 6 {
		t.Fatalf("LastSeq after poison batch = %d, want 6", got)
	}
	if ds.Len() != 5 {
		t.Fatalf("dataset has %d tuples, want 5", ds.Len())
	}
}

func TestApplyLoggedJournalErrorRejectsBatch(t *testing.T) {
	_, dom := lineEngine(t, 8, 10, 1)
	tbl, _ := NewTable(domain.NewDataset(dom))
	boom := errors.New("disk full")
	tbl.SetJournal(func(uint64, []engine.Mutation) error { return boom })
	applied, rejected, err := tbl.ApplyLogged(1, []engine.Mutation{{Op: engine.MutAdd, P: 1}})
	if applied != 0 || rejected != 1 || !errors.Is(err, boom) {
		t.Fatalf("journal failure = (%d, %d, %v), want (0, 1, disk full)", applied, rejected, err)
	}
	if got := tbl.Dataset().Len(); got != 0 {
		t.Fatalf("unjournaled batch applied %d tuples", got)
	}
	if got := tbl.LastSeq(); got != 0 {
		t.Fatalf("LastSeq advanced to %d past an unjournaled batch", got)
	}
}

func TestTableSnapshotRestoreRoundTrip(t *testing.T) {
	_, dom := lineEngine(t, 8, 10, 1)
	ds := domain.NewDataset(dom)
	tbl, _ := NewTable(ds)
	tbl.TrackEpochs()
	tbl.ApplyLogged(1, []engine.Mutation{{Op: engine.MutAdd, P: 1}, {Op: engine.MutAdd, P: 2}})
	tbl.AdvanceEpoch()
	tbl.ApplyLogged(3, []engine.Mutation{{Op: engine.MutAdd, P: 3}})

	pts, st := tbl.Snapshot()
	if len(pts) != 3 || st.LastSeq != 3 || st.Applied != 3 || st.CurEpoch != 1 || !st.Tracking {
		t.Fatalf("snapshot = %v %+v", pts, st)
	}
	if len(st.EpochOf) != 3 || st.EpochOf[2] != 1 || st.EpochOf[0] != 0 {
		t.Fatalf("epoch tags = %v", st.EpochOf)
	}

	ds2, err := domain.FromPoints(dom, pts)
	if err != nil {
		t.Fatal(err)
	}
	tbl2, _ := NewTable(ds2)
	if err := tbl2.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	pts2, st2 := tbl2.Snapshot()
	if len(pts2) != len(pts) || st2.LastSeq != st.LastSeq || st2.CurEpoch != st.CurEpoch {
		t.Fatalf("restored snapshot = %v %+v", pts2, st2)
	}
	// Expiry behaves identically on the restored table: epoch-0 tuples go.
	n, err := tbl2.ExpireBefore(1)
	if err != nil || n != 2 {
		t.Fatalf("ExpireBefore on restored table = (%d, %v), want (2, nil)", n, err)
	}

	// Tag/dataset mismatch is refused.
	tbl3, _ := NewTable(domain.NewDataset(dom))
	if err := tbl3.RestoreState(st); err == nil {
		t.Fatal("RestoreState accepted tags over a different cardinality")
	}
}

// TestIngestResumesAfterRestoredCursor pins numbering across a restart:
// Ingest numbers a batch after the table's cursor, so a table restored at
// LastSeq 41 journals its next batch as 42-43 and replay's cursor check
// keeps working.
func TestIngestResumesAfterRestoredCursor(t *testing.T) {
	_, dom := lineEngine(t, 8, 10, 1)
	tbl, _ := NewTable(domain.NewDataset(dom))
	if err := tbl.RestoreState(TableState{LastSeq: 41}); err != nil {
		t.Fatal(err)
	}
	var journaled []uint64
	tbl.SetJournal(func(firstSeq uint64, muts []engine.Mutation) error {
		journaled = append(journaled, firstSeq, uint64(len(muts)))
		return nil
	})
	res, err := tbl.Ingest([]Event{{Op: "append", Row: []int{1}}, {Op: "append", Row: []int{2}}})
	if err != nil || res.First != 42 || res.Last != 43 {
		t.Fatalf("Ingest = (%+v, %v), want seqs [42,43]", res, err)
	}
	if got := tbl.LastSeq(); got != 43 {
		t.Fatalf("table LastSeq = %d, want 43", got)
	}
	if len(journaled) != 2 || journaled[0] != 42 || journaled[1] != 2 {
		t.Fatalf("journal saw %v, want [42 2]", journaled)
	}
}

func TestStreamStateExportRestoreRoundTrip(t *testing.T) {
	mk := func() (*Stream, *engine.Engine, *Table) {
		dom := domain.MustLine("v", 8)
		plan, err := engine.Compile(policy.New(secgraph.NewComplete(dom)))
		if err != nil {
			t.Fatal(err)
		}
		acct, err := composition.NewAccountant(10)
		if err != nil {
			t.Fatal(err)
		}
		// A keyed engine: its noise is a function of the key and the
		// ordinal, so restoring the ordinal continues the noise.
		eng, err := engine.NewKeyed(plan, acct, noise.SeedKey(99))
		if err != nil {
			t.Fatal(err)
		}
		ds := domain.NewDataset(dom)
		for i := 0; i < 40; i++ {
			ds.MustAdd(domain.Point(i % 8))
		}
		tbl, _ := NewTable(ds)
		st, err := New(eng, tbl, Config{Epsilon: 0.5, Kinds: []ReleaseKind{KindHistogram}})
		if err != nil {
			t.Fatal(err)
		}
		return st, eng, tbl
	}
	live, liveEng, _ := mk()
	for i := 0; i < 3; i++ {
		if _, err := live.CloseEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	exported := live.ExportState()
	liveOrd := liveEng.Ordinal()
	liveAcct := liveEng.Accountant().State()

	rec, recEng, _ := mk()
	if err := rec.RestoreState(exported); err != nil {
		t.Fatal(err)
	}
	if err := recEng.Accountant().Restore(liveAcct); err != nil {
		t.Fatal(err)
	}
	if err := recEng.RestoreOrdinal(liveOrd); err != nil {
		t.Fatal(err)
	}

	// Cursors and buffered releases survive.
	a, b := live.Releases(0), rec.Releases(0)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("buffered releases: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].Epoch != b[i].Epoch {
			t.Fatalf("release %d cursors diverge: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Future closes are bit-for-bit identical.
	ra, err := live.CloseEpoch()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := rec.CloseEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if ra.Seq != rb.Seq || ra.Epoch != rb.Epoch || ra.Epsilon != rb.Epsilon {
		t.Fatalf("post-restore close headers diverge: %+v vs %+v", ra, rb)
	}
	for i := range ra.Histogram {
		if ra.Histogram[i] != rb.Histogram[i] {
			t.Fatalf("post-restore histograms diverge at %d: %v vs %v", i, ra.Histogram[i], rb.Histogram[i])
		}
	}
	// Restore onto a used stream is refused.
	if err := rec.RestoreState(exported); err == nil {
		t.Fatal("RestoreState accepted a non-fresh stream")
	}
}

func TestStreamJournalAbortsClose(t *testing.T) {
	eng, dom := lineEngine(t, 8, 10, 5)
	ds := domain.NewDataset(dom)
	ds.MustAdd(1)
	tbl, _ := NewTable(ds)
	st, err := New(eng, tbl, Config{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("wal gone")
	fail := true
	var seen []int
	st.SetJournal(func(epoch int) error {
		seen = append(seen, epoch)
		if fail {
			return boom
		}
		return nil
	})
	if _, err := st.CloseEpoch(); !errors.Is(err, boom) {
		t.Fatalf("close with failing journal = %v", err)
	}
	if got := st.Status(); got.Epoch != 0 || got.Releases != 0 {
		t.Fatalf("aborted close advanced state: %+v", got)
	}
	// The charge stands (privacy loss never under-counted)...
	if spent := eng.Accountant().Spent(); spent != 0.5 {
		t.Fatalf("aborted close spent %v, want 0.5 (charge stands)", spent)
	}
	// ...and the close can be retried once the journal recovers.
	fail = false
	rel, err := st.CloseEpoch()
	if err != nil || rel.Epoch != 0 {
		t.Fatalf("retried close = (%+v, %v)", rel, err)
	}
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 0 {
		t.Fatalf("journal saw epochs %v, want [0 0]", seen)
	}
}

// TestIngestJournalFailureNeverFalselyAcks pins the failed-append path:
// Ingest returns an error wrapping ErrJournalFailed, applies nothing, and
// spends no sequence number, so the next journaled batch starts at 1; the
// instruments count the failure, not a batch.
func TestIngestJournalFailureNeverFalselyAcks(t *testing.T) {
	_, dom := lineEngine(t, 8, 10, 1)
	tbl, _ := NewTable(domain.NewDataset(dom))
	reg := metrics.NewRegistry()
	im := &IngestMetrics{
		Batches:         reg.Counter("batches_total", "test"),
		JournalFailures: reg.Counter("journal_failures_total", "test"),
	}
	tbl.SetMetrics(im)
	down := true
	tbl.SetJournal(func(uint64, []engine.Mutation) error {
		if down {
			return errors.New("disk gone")
		}
		return nil
	})
	res, err := tbl.Ingest([]Event{{Op: "append", Row: []int{1}}})
	if !errors.Is(err, ErrJournalFailed) || res != (IngestResult{}) {
		t.Fatalf("Ingest with a failing journal = (%+v, %v), want ErrJournalFailed and no result", res, err)
	}
	if got := tbl.Dataset().Len(); got != 0 {
		t.Fatalf("unjournaled events applied: %d tuples", got)
	}
	if got := tbl.LastSeq(); got != 0 {
		t.Fatalf("cursor advanced to %d past an unjournaled batch", got)
	}
	if im.JournalFailures.Value() != 1 || im.Batches.Value() != 0 {
		t.Fatalf("instruments counted %d failures and %d batches, want 1 and 0",
			im.JournalFailures.Value(), im.Batches.Value())
	}
	down = false
	if res, err := tbl.Ingest([]Event{{Op: "append", Row: []int{2}}}); err != nil || res.First != 1 {
		t.Fatalf("Ingest after the journal recovered = (%+v, %v), want seq 1", res, err)
	}
}

func TestTickerStopsOnJournalFailure(t *testing.T) {
	eng, dom := lineEngine(t, 8, 100, 5)
	ds := domain.NewDataset(dom)
	ds.MustAdd(1)
	tbl, _ := NewTable(ds)
	st, err := New(eng, tbl, Config{Epsilon: 0.5, Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	st.SetJournal(func(int) error { return errors.New("wal down") })
	st.Start()
	defer st.Stop()
	// The first tick charges once and fails the journal; the ticker must
	// stop rather than re-charging the same epoch forever.
	deadline := time.Now().Add(2 * time.Second)
	for eng.Accountant().Spent() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // ten more intervals, were it still running
	if spent := eng.Accountant().Spent(); spent != 0.5 {
		t.Fatalf("spent %v: ticker kept re-charging a journal-failed epoch", spent)
	}
}
