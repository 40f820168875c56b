package blowfish_test

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"blowfish"
	"blowfish/internal/policy"
)

// TestSessionStreamFacade drives the streaming flow end to end through the
// public facade: table → session-bound stream → ingest → epoch close,
// with the epoch charge landing on the session's shared budget.
func TestSessionStreamFacade(t *testing.T) {
	dom, err := blowfish.LineDomain("v", 32)
	if err != nil {
		t.Fatal(err)
	}
	g, err := blowfish.DistanceThreshold(dom, 3)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := blowfish.NewSession(blowfish.NewPolicy(g), 1.0, blowfish.NewSource(1))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := blowfish.NewStreamTable(blowfish.NewDataset(dom))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sess.NewStream(tbl, blowfish.StreamConfig{Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	if _, err := tbl.Ingest([]blowfish.StreamEvent{
		{Op: "append", Row: []int{4}},
		{Op: "append", Row: []int{9}},
	}); err != nil {
		t.Fatal(err)
	}
	rel, err := st.CloseEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if rel.N != 2 || len(rel.Histogram) != 32 {
		t.Fatalf("release = %+v", rel)
	}
	// The epoch charge shares the session's budget: an ad-hoc release that
	// no longer fits is refused.
	if got := sess.Remaining(); got != 0.75 {
		t.Fatalf("Remaining = %v, want 0.75", got)
	}
	if _, err := sess.ReleaseHistogram(tbl.Dataset(), 0.8); !errors.Is(err, blowfish.ErrBudgetExceeded) {
		t.Fatalf("over-budget session release = %v, want ErrBudgetExceeded", err)
	}
}

// constrainedLineSession returns a keyed session over a constrained policy
// on a line domain (a public count of the values below 4), and its dataset.
func constrainedLineSession(t *testing.T, budget float64, seed int64) (*blowfish.Session, *blowfish.Dataset) {
	t.Helper()
	dom, err := blowfish.LineDomain("v", 8)
	if err != nil {
		t.Fatal(err)
	}
	g, err := blowfish.DistanceThreshold(dom, 2)
	if err != nil {
		t.Fatal(err)
	}
	ds := blowfish.NewDataset(dom)
	for _, v := range []blowfish.Point{3, 5, 6} {
		if err := ds.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	set, err := blowfish.ConstraintsFromDataset([]blowfish.CountQuery{
		{Name: "low", Pred: func(p blowfish.Point) bool { return p < 4 }},
	}, ds)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := blowfish.Compile(blowfish.NewConstrainedPolicy(g, set))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cp.NewKeyedSession(budget, blowfish.SeedKey(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sess, ds
}

// TestConstrainedSessionStateRoundTrip asserts a constrained session's
// state export continues the same noise and ledger bit for bit in a
// session rebuilt under the same key and restored, as the durable server
// recovers one.
func TestConstrainedSessionStateRoundTrip(t *testing.T) {
	a, ds := constrainedLineSession(t, 10, 5)
	for i := 0; i < 2; i++ {
		if _, err := a.ReleaseHistogram(ds, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	st := a.ExportState()
	b, _ := constrainedLineSession(t, 10, 5)
	if err := b.RestoreState(st); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	for i := 0; i < 3; i++ {
		ra, err := a.ReleaseHistogram(ds, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.ReleaseHistogram(ds, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				t.Fatalf("release %d diverged at bin %d: %v vs %v", i, j, ra[j], rb[j])
			}
		}
	}
	la, lb := a.Accountant().Releases(), b.Accountant().Releases()
	if a.Accountant().Spent() != b.Accountant().Spent() || !reflect.DeepEqual(la, lb) {
		t.Fatalf("ledgers diverged: %v vs %v", la, lb)
	}
}

// TestConstrainedPolicyStreamsHistograms asserts a constrained policy
// streams histograms, each epoch charging the session's shared budget.
func TestConstrainedPolicyStreamsHistograms(t *testing.T) {
	sess, ds := constrainedLineSession(t, 1, 1)
	tbl, err := blowfish.NewStreamTable(ds)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sess.NewStream(tbl, blowfish.StreamConfig{Epsilon: 0.1})
	if err != nil {
		t.Fatalf("constrained histogram stream: %v", err)
	}
	defer st.Stop()
	rel, err := st.CloseEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if rel.N != 3 || len(rel.Histogram) != 8 {
		t.Fatalf("release = %+v", rel)
	}
	if got := sess.Remaining(); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("Remaining = %v, want 0.9", got)
	}
}

// TestConstrainedPolicyRefusesStreaming pins the kinds a constrained policy
// cannot stream: cumulative and range streams are refused with the same
// errors as the corresponding ad-hoc releases.
func TestConstrainedPolicyRefusesStreaming(t *testing.T) {
	sess, ds := constrainedLineSession(t, 1, 1)
	tbl, err := blowfish.NewStreamTable(ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.NewStream(tbl, blowfish.StreamConfig{
		Epsilon: 0.1, Kinds: []blowfish.StreamReleaseKind{blowfish.StreamCumulative},
	}); !errors.Is(err, policy.ErrConstrained) {
		t.Errorf("cumulative stream = %v, want policy.ErrConstrained", err)
	}
	_, rangeErr := sess.NewRangeReleaser(ds, 4, 0.1)
	if rangeErr == nil {
		t.Fatal("constrained range release accepted")
	}
	_, err = sess.NewStream(tbl, blowfish.StreamConfig{
		Epsilon: 0.1, Kinds: []blowfish.StreamReleaseKind{blowfish.StreamRange},
		RangeQueries: []blowfish.RangeQuery{{Lo: 0, Hi: 3}},
	})
	if err == nil || !strings.HasSuffix(err.Error(), rangeErr.Error()) {
		t.Errorf("range stream = %v, want the range release refusal %q", err, rangeErr)
	}
	if got := sess.Remaining(); got != 1 {
		t.Errorf("refusals charged the budget: Remaining = %v", got)
	}
}
