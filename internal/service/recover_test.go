package service

import (
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"blowfish"
	"blowfish/internal/wal"
)

var (
	replayLine = []AttrSpec{{Name: "v", Size: 64}}
	replayGrid = []AttrSpec{{Name: "x", Size: 4}, {Name: "y", Size: 4}}
	replayL1   = GraphSpec{Kind: "l1", Theta: 4}
)

// TestReplayRebuildsLedger writes a WAL tail by hand and recovers it. Each
// release record must leave exactly the ledger entry its live release
// charged — label and ε — and move the session's ordinal to the record's:
// histogram, cumulative and range releases are charged; an exact
// partition-policy histogram leaves no entry; and a release whose dataset
// was deleted earlier in the log charges like any other. The session put
// records carry no key: recovery derives it from the base seed and the
// session id, so the next release after recovery must match a
// never-crashed core with the same base seed bit for bit.
func TestReplayRebuildsLedger(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	write := func(kind byte, v any) {
		t.Helper()
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := log.Append(kind, data); err != nil {
			t.Fatal(err)
		}
	}
	rows := []blowfish.Point{1, 2, 3, 3, 40}
	write(recPolicyPut, walPolicyPut{ID: "pol-1", Domain: replayLine, Graph: replayL1})
	write(recPolicyPut, walPolicyPut{ID: "pol-2", Domain: replayGrid, Graph: GraphSpec{Kind: "partition", Blocks: 4}})
	write(recDatasetPut, walDatasetPut{ID: "ds-1", Domain: replayLine, Points: rows})
	write(recDatasetPut, walDatasetPut{ID: "ds-2", Domain: replayGrid, Points: []blowfish.Point{0, 5, 15}})
	write(recSessionPut, walSessionPut{ID: "sess-1", PolicyID: "pol-1", Budget: 10})
	write(recSessionPut, walSessionPut{ID: "sess-2", PolicyID: "pol-2", Budget: 10})
	write(recRelease, walRelease{SessionID: "sess-1", Ordinal: 1, Kind: "histogram", DatasetID: "ds-1", Epsilon: 0.5})
	write(recRelease, walRelease{SessionID: "sess-1", Ordinal: 2, Kind: "cumulative", DatasetID: "ds-1", Epsilon: 0.25})
	write(recRelease, walRelease{SessionID: "sess-1", Ordinal: 3, Kind: "range", DatasetID: "ds-1", Epsilon: 0.125})
	write(recRelease, walRelease{SessionID: "sess-2", Ordinal: 1, Kind: "histogram", DatasetID: "ds-2", Epsilon: 0.5})
	write(recDelete, walDelete{NS: nsDataset, ID: "ds-1"})
	write(recRelease, walRelease{SessionID: "sess-1", Ordinal: 4, Kind: "histogram", DatasetID: "ds-1", Epsilon: 1})
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := Open(Config{Durability: DurabilityConfig{Dir: dir, Fsync: "never"}})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer c.Abandon()

	for _, tc := range []struct {
		id      string
		spent   float64
		ledger  []ReleaseRecord
		ordinal uint64
	}{
		{"sess-1", 1.875, []ReleaseRecord{
			{Label: "histogram", Epsilon: 0.5},
			{Label: "cumulative-histogram", Epsilon: 0.25},
			{Label: "range-releaser", Epsilon: 0.125},
			{Label: "histogram", Epsilon: 1},
		}, 4},
		{"sess-2", 0, nil, 1},
	} {
		got, err := c.GetSession(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		if got.Spent != tc.spent || !reflect.DeepEqual(got.Releases, tc.ledger) {
			t.Errorf("%s: recovered spent %v, ledger %+v; want %v, %+v", tc.id, got.Spent, got.Releases, tc.spent, tc.ledger)
		}
		if got := c.sessions[tc.id].sess.Ordinal(); got != tc.ordinal {
			t.Errorf("%s: recovered ordinal %d, want %d", tc.id, got, tc.ordinal)
		}
	}

	// A core that never crashed, driven through the same operations.
	ctl := newCore(Config{})
	pol, err := ctl.ApplyPolicy("pol-1", CreatePolicyRequest{Domain: replayLine, Graph: replayL1})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := ctl.ApplyDataset("ds-1", CreateDatasetRequest{PolicyID: pol.ID, Rows: [][]int{{1}, {2}, {3}, {3}, {40}}})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := ctl.ApplySession("sess-1", CreateSessionRequest{PolicyID: pol.ID, Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Histogram(sess.ID, HistogramRequest{DatasetID: ds.ID, Epsilon: 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Cumulative(sess.ID, CumulativeRequest{DatasetID: ds.ID, Epsilon: 0.25}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Range(sess.ID, RangeRequest{DatasetID: ds.ID, Epsilon: 0.125, Queries: []RangeQuery{{Lo: 0, Hi: 9}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Histogram(sess.ID, HistogramRequest{DatasetID: ds.ID, Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	next := func(core *Core) HistogramResponse {
		t.Helper()
		d, err := core.ApplyDataset("ds-3", CreateDatasetRequest{Domain: replayLine, Rows: [][]int{{5}, {6}}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := core.Histogram("sess-1", HistogramRequest{DatasetID: d.ID, Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if got, want := next(c), next(ctl); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-recovery release diverges from the never-crashed core:\ngot  %v\nwant %v", got.Counts[:8], want.Counts[:8])
	}
}

// TestNoiseIndependentOfHost pins that a core's noise depends on its base
// seed and the requests alone: two cores with the same Config.Seed and the
// same creates, one at GOMAXPROCS 1 and one at 4, publish identical
// releases.
func TestNoiseIndependentOfHost(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(procs int) []byte {
		t.Helper()
		runtime.GOMAXPROCS(procs)
		c := newCore(Config{Seed: 42})
		defer c.Close()
		pol, err := c.ApplyPolicy("pol-1", CreatePolicyRequest{Domain: replayLine, Graph: replayL1})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := c.ApplyDataset("ds-1", CreateDatasetRequest{PolicyID: pol.ID, Rows: [][]int{{1}, {9}, {9}, {30}}})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := c.ApplySession("sess-1", CreateSessionRequest{PolicyID: pol.ID, Budget: 10})
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.ApplyStream("stream-1", CreateStreamRequest{
			PolicyID: pol.ID, DatasetID: ds.ID, Budget: 10,
			Epoch: EpochSpec{Epsilon: 0.5}, Kinds: []string{"histogram", "cumulative"},
		})
		if err != nil {
			t.Fatal(err)
		}
		var out []any
		for i := 0; i < 3; i++ {
			h, err := c.Histogram(sess.ID, HistogramRequest{DatasetID: ds.ID, Epsilon: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			cu, err := c.Cumulative(sess.ID, CumulativeRequest{DatasetID: ds.ID, Epsilon: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			r, err := c.Range(sess.ID, RangeRequest{DatasetID: ds.ID, Epsilon: 0.5, Queries: []RangeQuery{{Lo: 2, Hi: 40}}})
			if err != nil {
				t.Fatal(err)
			}
			ep, err := c.CloseEpoch(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, h, cu, r, ep)
		}
		body, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	if one, four := run(1), run(4); string(one) != string(four) {
		t.Fatal("release bodies differ between GOMAXPROCS 1 and 4")
	}
}

// TestIngestJournalFailureIsDurabilityError pins the failed-append path
// of an events request: with the WAL gone, the batch is refused with the
// structured durability code, nothing is applied, and the dataset's cursor
// stays where the last journaled batch left it.
func TestIngestJournalFailureIsDurabilityError(t *testing.T) {
	c, err := Open(Config{Durability: DurabilityConfig{Dir: t.TempDir(), Fsync: "never"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abandon()
	if _, err := c.ApplyPolicy("pol-1", CreatePolicyRequest{Domain: replayLine, Graph: replayL1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyDataset("ds-1", CreateDatasetRequest{PolicyID: "pol-1"}); err != nil {
		t.Fatal(err)
	}
	ack, err := c.IngestEvents("ds-1", []blowfish.StreamEvent{{Op: "append", Row: []int{3}}})
	if err != nil || ack.LastSeq != 1 {
		t.Fatalf("first batch = (%+v, %v), want seq 1", ack, err)
	}
	c.Abandon() // closes the WAL: every later append fails
	resp, err := c.IngestEvents("ds-1", []blowfish.StreamEvent{{Op: "append", Row: []int{4}}})
	var se *Error
	if !errors.As(err, &se) || se.Code != CodeDurability {
		t.Fatalf("batch with the WAL closed = (%+v, %v), want %s", resp, err, CodeDurability)
	}
	if n, seq := c.DatasetHandle("ds-1").Len(), c.DatasetTable("ds-1").LastSeq(); n != 1 || seq != 1 {
		t.Fatalf("after the refused batch: %d rows at seq %d, want 1 row at seq 1", n, seq)
	}
}
