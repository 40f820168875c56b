package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"blowfish/internal/service"
)

var testPolicy = service.CreatePolicyRequest{
	Domain: []service.AttrSpec{{Name: "v", Size: 16}},
	Graph:  service.GraphSpec{Kind: "line"},
}

func newTestRouter(t *testing.T, n int, dir string) *Router {
	t.Helper()
	cfg := service.Config{Seed: 1}
	if dir != "" {
		cfg.Durability = service.DurabilityConfig{Dir: dir, Fsync: "always"}
	}
	r, err := Open(cfg, n)
	if err != nil {
		t.Fatalf("Open(%d shards): %v", n, err)
	}
	return r
}

// TestRouterPlacement pins the placement contract: datasets land on
// ShardFor(id, n), sessions and streams land on their dataset's shard,
// policies land everywhere.
func TestRouterPlacement(t *testing.T) {
	const n = 4
	r := newTestRouter(t, n, "")
	defer r.Close()

	pol, err := r.CreatePolicy(testPolicy)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		if !r.Core(k).HasPolicy(pol.ID) {
			t.Fatalf("policy %s missing on shard %d: broadcast incomplete", pol.ID, k)
		}
	}

	for i := 0; i < 16; i++ {
		ds, err := r.CreateDataset(service.CreateDatasetRequest{
			PolicyID: pol.ID, Rows: [][]int{{i % 16}},
		})
		if err != nil {
			t.Fatal(err)
		}
		want := ShardFor(ds.ID, n)
		if got := r.ShardOf(ds.ID); got != want {
			t.Fatalf("dataset %s routed to shard %d, want ShardFor = %d", ds.ID, got, want)
		}
		if !r.Core(want).HasDataset(ds.ID) {
			t.Fatalf("dataset %s not present on its shard %d", ds.ID, want)
		}
		for k := 0; k < n; k++ {
			if k != want && r.Core(k).HasDataset(ds.ID) {
				t.Fatalf("dataset %s duplicated on shard %d", ds.ID, k)
			}
		}

		// The session hint and the stream's dataset binding must colocate.
		sess, err := r.CreateSession(service.CreateSessionRequest{
			PolicyID: pol.ID, Budget: 10, DatasetID: ds.ID,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := r.ShardOf(sess.ID); got != want {
			t.Fatalf("session %s (hint %s) on shard %d, want dataset's shard %d", sess.ID, ds.ID, got, want)
		}
		st, err := r.CreateStream(service.CreateStreamRequest{
			PolicyID: pol.ID, DatasetID: ds.ID, Budget: 10,
			Epoch: service.EpochSpec{Epsilon: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := r.ShardOf(st.ID); got != want {
			t.Fatalf("stream %s (dataset %s) on shard %d, want %d", st.ID, ds.ID, got, want)
		}

		// A colocated release must work end to end.
		if _, err := r.Histogram(sess.ID, service.HistogramRequest{DatasetID: ds.ID, Epsilon: 0.1}); err != nil {
			t.Fatalf("colocated histogram on %s/%s: %v", sess.ID, ds.ID, err)
		}
	}

	// An unhinted session still lands somewhere deterministic.
	sess, err := r.CreateSession(service.CreateSessionRequest{PolicyID: pol.ID, Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.ShardOf(sess.ID), ShardFor(sess.ID, n); got != want {
		t.Fatalf("unhinted session %s on shard %d, want ShardFor = %d", sess.ID, got, want)
	}

	if got, want := r.SessionCount(), 17; got != want {
		t.Fatalf("SessionCount = %d, want %d", got, want)
	}
	if got, want := r.StreamCount(), 16; got != want {
		t.Fatalf("StreamCount = %d, want %d", got, want)
	}
}

// TestRouterAssignmentStableAcrossRestart is the durability property the
// on-disk layout depends on: reopening the same directory with the same
// shard count routes every id to the shard that holds its data, and the
// recovered state answers reads.
func TestRouterAssignmentStableAcrossRestart(t *testing.T) {
	const n = 4
	dir := t.TempDir()
	r := newTestRouter(t, n, dir)

	pol, err := r.CreatePolicy(testPolicy)
	if err != nil {
		t.Fatal(err)
	}
	type placed struct{ ds, sess, st string }
	var resources []placed
	where := make(map[string]int)
	for i := 0; i < 12; i++ {
		ds, err := r.CreateDataset(service.CreateDatasetRequest{
			PolicyID: pol.ID, Rows: [][]int{{i % 16}, {(i + 1) % 16}},
		})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := r.CreateSession(service.CreateSessionRequest{
			PolicyID: pol.ID, Budget: 10, DatasetID: ds.ID,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := r.CreateStream(service.CreateStreamRequest{
			PolicyID: pol.ID, DatasetID: ds.ID, Budget: 10,
			Epoch: service.EpochSpec{Epsilon: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Histogram(sess.ID, service.HistogramRequest{DatasetID: ds.ID, Epsilon: 0.5}); err != nil {
			t.Fatal(err)
		}
		resources = append(resources, placed{ds.ID, sess.ID, st.ID})
		for _, id := range []string{ds.ID, sess.ID, st.ID} {
			where[id] = r.ShardOf(id)
		}
	}
	r.Close()

	rec := newTestRouter(t, n, dir)
	defer rec.Close()
	for id, want := range where {
		if got := rec.ShardOf(id); got != want {
			t.Fatalf("id %s on shard %d after restart, was %d: assignment not stable", id, got, want)
		}
	}
	for _, p := range resources {
		ds, err := rec.GetDataset(p.ds)
		if err != nil {
			t.Fatalf("recovered GetDataset(%s): %v", p.ds, err)
		}
		if ds.Rows != 2 {
			t.Fatalf("dataset %s recovered %d rows, want 2", p.ds, ds.Rows)
		}
		sess, err := rec.GetSession(p.sess)
		if err != nil {
			t.Fatalf("recovered GetSession(%s): %v", p.sess, err)
		}
		if sess.Spent <= 0 {
			t.Fatalf("session %s recovered spent = %v, want the pre-restart charge", p.sess, sess.Spent)
		}
		if _, err := rec.GetStream(p.st); err != nil {
			t.Fatalf("recovered GetStream(%s): %v", p.st, err)
		}
	}

	// New creates after recovery keep minting fresh ids: no collision
	// with any pre-restart resource.
	ds, err := rec.CreateDataset(service.CreateDatasetRequest{PolicyID: pol.ID, Rows: [][]int{{3}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := where[ds.ID]; ok {
		t.Fatalf("post-recovery dataset reused id %s", ds.ID)
	}
}

// TestRouterScatterGatherLists pins the merge order: a scatter-gathered
// list is sorted the way a single core sorts ("ds-2" before "ds-10") and
// contains every resource exactly once.
func TestRouterScatterGatherLists(t *testing.T) {
	r := newTestRouter(t, 4, "")
	defer r.Close()
	pol, err := r.CreatePolicy(testPolicy)
	if err != nil {
		t.Fatal(err)
	}
	const total = 15
	for i := 0; i < total; i++ {
		if _, err := r.CreateDataset(service.CreateDatasetRequest{PolicyID: pol.ID}); err != nil {
			t.Fatal(err)
		}
	}
	got := r.ListDatasets().Datasets
	if len(got) != total {
		t.Fatalf("ListDatasets returned %d, want %d", len(got), total)
	}
	for i, d := range got {
		want := fmt.Sprintf("ds-%d", i+1)
		if d.ID != want {
			t.Fatalf("ListDatasets[%d] = %s, want %s (numeric id order)", i, d.ID, want)
		}
	}
}

// TestRouterPolicyBroadcastAtomicity: a delete any shard refuses leaves
// the policy on every shard, so the shards never disagree about the
// policy set.
func TestRouterPolicyBroadcastAtomicity(t *testing.T) {
	const n = 4
	r := newTestRouter(t, n, "")
	defer r.Close()
	pol, err := r.CreatePolicy(testPolicy)
	if err != nil {
		t.Fatal(err)
	}
	// Pin the policy on one shard with a live session.
	ds, err := r.CreateDataset(service.CreateDatasetRequest{PolicyID: pol.ID})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateSession(service.CreateSessionRequest{
		PolicyID: pol.ID, Budget: 1, DatasetID: ds.ID,
	}); err != nil {
		t.Fatal(err)
	}
	err = r.DeletePolicy(pol.ID)
	var se *service.Error
	if !errors.As(err, &se) || se.Code != service.CodePolicyInUse {
		t.Fatalf("DeletePolicy with a live session = %v, want %s", err, service.CodePolicyInUse)
	}
	for k := 0; k < n; k++ {
		if !r.Core(k).HasPolicy(pol.ID) {
			t.Fatalf("refused delete removed policy from shard %d: broadcast not atomic", k)
		}
	}

	// A second policy with nothing referencing it deletes everywhere.
	pol2, err := r.CreatePolicy(testPolicy)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.DeletePolicy(pol2.ID); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		if r.Core(k).HasPolicy(pol2.ID) {
			t.Fatalf("deleted policy lingers on shard %d", k)
		}
	}
}

// TestRouterUnknownIDErrors: a route miss must surface the same
// structured error a single core produces, not a router-invented one.
func TestRouterUnknownIDErrors(t *testing.T) {
	r := newTestRouter(t, 4, "")
	defer r.Close()
	for _, tc := range []struct {
		err  error
		code string
	}{
		{func() error { _, err := r.GetDataset("ds-999"); return err }(), service.CodeUnknownDataset},
		{func() error { _, err := r.GetSession("sess-999"); return err }(), service.CodeUnknownSession},
		{func() error { _, err := r.GetStream("stream-999"); return err }(), service.CodeUnknownStream},
		{func() error { _, err := r.GetPolicy("pol-999"); return err }(), service.CodeUnknownPolicy},
	} {
		var se *service.Error
		if !errors.As(tc.err, &se) || se.Code != tc.code {
			t.Fatalf("route miss = %v, want code %s", tc.err, tc.code)
		}
	}
}

// within runs fn under a deadline, so a router call that wedges fails the
// test instead of hanging the suite.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	const deadline = 5 * time.Second
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(deadline):
		t.Fatalf("%s did not return within %v: the router is wedged", what, deadline)
	}
}

// wantCode asserts a structured service error.
func wantCode(t *testing.T, err error, code string) {
	t.Helper()
	var se *service.Error
	if !errors.As(err, &se) || se.Code != code {
		t.Fatalf("got %v, want code %s", err, code)
	}
}

// TestRouterDeleteUnderLoad deletes a dataset, a session and a stream
// through a 4-shard router while releases and creates run against other
// resources. A delete holds the router's write lock across the core
// call, so it must resolve the id without taking the read lock again:
// Go's RWMutex is not reentrant, and one wedged delete would block every
// later create and routed request.
func TestRouterDeleteUnderLoad(t *testing.T) {
	r := newTestRouter(t, 4, "")
	defer r.Close()
	pol, err := r.CreatePolicy(testPolicy)
	if err != nil {
		t.Fatal(err)
	}
	newDataset := func() string {
		t.Helper()
		ds, err := r.CreateDataset(service.CreateDatasetRequest{PolicyID: pol.ID, Rows: [][]int{{1}, {5}}})
		if err != nil {
			t.Fatal(err)
		}
		return ds.ID
	}
	newSession := func(dsID string) string {
		t.Helper()
		sess, err := r.CreateSession(service.CreateSessionRequest{PolicyID: pol.ID, Budget: 1e9, DatasetID: dsID})
		if err != nil {
			t.Fatal(err)
		}
		return sess.ID
	}
	loadDS := newDataset()
	loadSess := newSession(loadDS)
	victimDS := newDataset()
	victimSess := newSession(victimDS)
	streamDS := newDataset()
	st, err := r.CreateStream(service.CreateStreamRequest{
		PolicyID: pol.ID, DatasetID: streamDS, Budget: 10, Epoch: service.EpochSpec{Epsilon: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Load on other resources: releases on one session, dataset creates.
	// On a wedged router these block for good, so the test waits for them
	// only once the deletes have returned.
	stop := make(chan struct{})
	loadErr := make(chan error, 2) // one send per load goroutine at most
	var load, warm sync.WaitGroup
	for _, op := range []func() error{
		func() error {
			_, err := r.Histogram(loadSess, service.HistogramRequest{DatasetID: loadDS, Epsilon: 0.01})
			return err
		},
		func() error {
			_, err := r.CreateDataset(service.CreateDatasetRequest{PolicyID: pol.ID})
			return err
		},
	} {
		load.Add(1)
		warm.Add(1)
		go func() {
			defer load.Done()
			for first := true; ; first = false {
				select {
				case <-stop:
					return
				default:
				}
				err := op()
				if first {
					warm.Done()
				}
				if err != nil {
					loadErr <- err
					return
				}
			}
		}()
	}
	warm.Wait() // every load goroutine is running before the deletes start

	within(t, "DeleteSession", func() error { return r.DeleteSession(victimSess) })
	within(t, "DeleteDataset", func() error { return r.DeleteDataset(victimDS) })
	within(t, "DeleteStream", func() error { return r.DeleteStream(st.ID) })
	close(stop)
	load.Wait()
	select {
	case err := <-loadErr:
		t.Fatalf("load beside the deletes failed: %v", err)
	default:
	}

	for _, id := range []string{victimSess, victimDS, st.ID} {
		if k := r.ShardOf(id); k != -1 {
			t.Fatalf("deleted %s still routes to shard %d", id, k)
		}
	}
	_, err = r.GetSession(victimSess)
	wantCode(t, err, service.CodeUnknownSession)
	_, err = r.GetDataset(victimDS)
	wantCode(t, err, service.CodeUnknownDataset)
	_, err = r.GetStream(st.ID)
	wantCode(t, err, service.CodeUnknownStream)
	// The stream's dataset is free again once its stream is gone.
	within(t, "DeleteDataset after its stream", func() error { return r.DeleteDataset(streamDS) })
}

// TestRouterNoIDReuseAfterRestart: an id deleted before a restart stays
// retired after it. Each core persists the highest id it ever applied,
// and the reopened router resumes past the maximum over its cores, so a
// client still holding a deleted (or TTL-expired) id can never reach a
// stranger's new resource with it. Both a graceful close and a crash.
func TestRouterNoIDReuseAfterRestart(t *testing.T) {
	for _, n := range []int{1, 4} {
		for _, crash := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/crash=%v", n, crash), func(t *testing.T) {
				dir := t.TempDir()
				r := newTestRouter(t, n, dir)
				pol, err := r.CreatePolicy(testPolicy)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ { // ds-1, sess-1, ds-2, sess-2
					ds, err := r.CreateDataset(service.CreateDatasetRequest{PolicyID: pol.ID})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := r.CreateSession(service.CreateSessionRequest{PolicyID: pol.ID, Budget: 1, DatasetID: ds.ID}); err != nil {
						t.Fatal(err)
					}
				}
				within(t, "DeleteSession", func() error { return r.DeleteSession("sess-2") })
				within(t, "DeleteDataset", func() error { return r.DeleteDataset("ds-2") })
				if crash {
					r.Abandon()
				} else {
					r.Close()
				}

				rec := newTestRouter(t, n, dir)
				defer rec.Close()
				ds, err := rec.CreateDataset(service.CreateDatasetRequest{PolicyID: pol.ID})
				if err != nil {
					t.Fatal(err)
				}
				sess, err := rec.CreateSession(service.CreateSessionRequest{PolicyID: pol.ID, Budget: 1, DatasetID: ds.ID})
				if err != nil {
					t.Fatal(err)
				}
				if ds.ID != "ds-3" || sess.ID != "sess-3" {
					t.Fatalf("after restart the router minted %s and %s, want ds-3 and sess-3 (ds-2 and sess-2 were deleted, not free)", ds.ID, sess.ID)
				}
			})
		}
	}
}

// TestRouterRefusedCreateUsesNoID: a create that the owning core refuses
// gives its id back, so the next accepted create gets the id a refusal
// never touched — at one shard exactly the ids a lone core would mint.
func TestRouterRefusedCreateUsesNoID(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			r := newTestRouter(t, n, "")
			defer r.Close()
			_, err := r.CreatePolicy(service.CreatePolicyRequest{Domain: testPolicy.Domain, Graph: service.GraphSpec{Kind: "no-such-graph"}})
			wantCode(t, err, service.CodeBadRequest)
			pol, err := r.CreatePolicy(testPolicy)
			if err != nil {
				t.Fatal(err)
			}
			_, err = r.CreateDataset(service.CreateDatasetRequest{PolicyID: pol.ID, Rows: [][]int{{99}}})
			wantCode(t, err, service.CodeBadRequest)
			ds, err := r.CreateDataset(service.CreateDatasetRequest{PolicyID: pol.ID})
			if err != nil {
				t.Fatal(err)
			}
			_, err = r.CreateSession(service.CreateSessionRequest{PolicyID: "pol-404", Budget: 1, DatasetID: ds.ID})
			wantCode(t, err, service.CodeUnknownPolicy)
			sess, err := r.CreateSession(service.CreateSessionRequest{PolicyID: pol.ID, Budget: 1, DatasetID: ds.ID})
			if err != nil {
				t.Fatal(err)
			}
			_, err = r.CreateStream(service.CreateStreamRequest{PolicyID: pol.ID, DatasetID: "ds-404", Budget: 1, Epoch: service.EpochSpec{Epsilon: 0.5}})
			wantCode(t, err, service.CodeUnknownDataset)
			st, err := r.CreateStream(service.CreateStreamRequest{PolicyID: pol.ID, DatasetID: ds.ID, Budget: 1, Epoch: service.EpochSpec{Epsilon: 0.5}})
			if err != nil {
				t.Fatal(err)
			}
			got := []string{pol.ID, ds.ID, sess.ID, st.ID}
			want := []string{"pol-1", "ds-1", "sess-1", "stream-1"}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("ids after one refused create of each kind = %v, want %v", got, want)
			}
		})
	}
}

// TestRouterInUseRefusalsDeterministic: a refused delete names no
// referent, so its error is the same bytes on every attempt and at every
// shard count, however the policy's sessions and streams spread over the
// shards. Two datasets on different shards (at 4) each carry two sessions
// and two streams.
func TestRouterInUseRefusalsDeterministic(t *testing.T) {
	var dsIDs []string
	for i := 1; len(dsIDs) < 2; i++ {
		id := fmt.Sprintf("ds-%d", i)
		if len(dsIDs) == 0 || ShardFor(id, 4) != ShardFor(dsIDs[0], 4) {
			dsIDs = append(dsIDs, id)
		}
	}
	last := dsIDs[1]
	var want []string
	for _, n := range []int{1, 4} {
		r := newTestRouter(t, n, "")
		pol, err := r.CreatePolicy(testPolicy)
		if err != nil {
			t.Fatal(err)
		}
		for ds := ""; ds != last; {
			resp, err := r.CreateDataset(service.CreateDatasetRequest{PolicyID: pol.ID})
			if err != nil {
				t.Fatal(err)
			}
			ds = resp.ID
		}
		for _, ds := range dsIDs {
			for j := 0; j < 2; j++ {
				if _, err := r.CreateSession(service.CreateSessionRequest{PolicyID: pol.ID, Budget: 1, DatasetID: ds}); err != nil {
					t.Fatal(err)
				}
				if _, err := r.CreateStream(service.CreateStreamRequest{
					PolicyID: pol.ID, DatasetID: ds, Budget: 1, Epoch: service.EpochSpec{Epsilon: 0.5},
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n == 4 && r.ShardOf("sess-1") == r.ShardOf("sess-3") {
			t.Fatalf("sessions of %v share shard %d; the test needs two shards", dsIDs, r.ShardOf("sess-1"))
		}
		var got []string
		for i := 0; i < 20; i++ {
			err := r.DeletePolicy(pol.ID)
			wantCode(t, err, service.CodePolicyInUse)
			got = append(got, err.Error())
			err = r.DeleteDataset(dsIDs[0])
			wantCode(t, err, service.CodeDatasetInUse)
			got = append(got, err.Error())
		}
		r.Close()
		if want == nil {
			want = got[:2]
		}
		for i, msg := range got {
			if msg != want[i%2] {
				t.Fatalf("shards=%d refusal %d = %q, want %q", n, i/2, msg, want[i%2])
			}
		}
	}
}

// TestRouterSeedsContinueAfterRestart: a session created after a restart
// from snapshots draws the noise it would have drawn without the restart.
// Its key derives from the base seed and its id alone, and the reopened
// router resumes minting ids where it stopped, so the session gets the id,
// and with it the key, that a router that never restarted gives it.
func TestRouterSeedsContinueAfterRestart(t *testing.T) {
	const n = 4
	populate := func(r *Router) []string {
		t.Helper()
		pol, err := r.CreatePolicy(testPolicy)
		if err != nil {
			t.Fatal(err)
		}
		var dsIDs []string
		for i := 0; i < 8; i++ {
			ds, err := r.CreateDataset(service.CreateDatasetRequest{PolicyID: pol.ID, Rows: [][]int{{i}, {i + 1}}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.CreateSession(service.CreateSessionRequest{PolicyID: pol.ID, Budget: 1, DatasetID: ds.ID}); err != nil {
				t.Fatal(err)
			}
			dsIDs = append(dsIDs, ds.ID)
		}
		return dsIDs
	}
	draw := func(r *Router, dsIDs []string) [][]float64 {
		t.Helper()
		var out [][]float64
		for _, ds := range dsIDs {
			sess, err := r.CreateSession(service.CreateSessionRequest{PolicyID: "pol-1", Budget: 1, DatasetID: ds})
			if err != nil {
				t.Fatal(err)
			}
			rel, err := r.Histogram(sess.ID, service.HistogramRequest{DatasetID: ds, Epsilon: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, rel.Counts)
		}
		return out
	}

	live := newTestRouter(t, n, "")
	defer live.Close()
	want := draw(live, populate(live))

	dir := t.TempDir()
	r := newTestRouter(t, n, dir)
	dsIDs := populate(r)
	r.Close()
	rec := newTestRouter(t, n, dir)
	defer rec.Close()
	if got := draw(rec, dsIDs); !reflect.DeepEqual(got, want) {
		t.Fatalf("releases of sessions created after a restart diverge from a router that never restarted:\ngot  %v\nwant %v", got, want)
	}
}

// TestRouterReleasesIndependentOfShardCount: a resource's noise depends
// only on the base seed, its id and its ordinal, so the same creates and
// releases on in-memory routers at 1 and at 4 shards publish
// byte-identical bodies, although the 4-shard router spreads the datasets,
// sessions and streams over its cores.
func TestRouterReleasesIndependentOfShardCount(t *testing.T) {
	run := func(n int) []byte {
		t.Helper()
		r := newTestRouter(t, n, "")
		defer r.Close()
		check := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%d shards: %v", n, err)
			}
		}
		pol, err := r.CreatePolicy(testPolicy)
		check(err)
		var out []any
		for i := 0; i < 8; i++ {
			ds, err := r.CreateDataset(service.CreateDatasetRequest{PolicyID: pol.ID, Rows: [][]int{{i}, {i + 1}, {15 - i}}})
			check(err)
			sess, err := r.CreateSession(service.CreateSessionRequest{PolicyID: pol.ID, Budget: 10, DatasetID: ds.ID})
			check(err)
			st, err := r.CreateStream(service.CreateStreamRequest{
				PolicyID: pol.ID, DatasetID: ds.ID, Budget: 10, Epoch: service.EpochSpec{Epsilon: 0.5},
				Kinds: []string{"histogram", "cumulative", "range"}, RangeQueries: []service.RangeQuery{{Lo: 2, Hi: 9}},
			})
			check(err)
			h, err := r.Histogram(sess.ID, service.HistogramRequest{DatasetID: ds.ID, Epsilon: 0.5})
			check(err)
			c, err := r.Cumulative(sess.ID, service.CumulativeRequest{DatasetID: ds.ID, Epsilon: 0.5})
			check(err)
			g, err := r.Range(sess.ID, service.RangeRequest{DatasetID: ds.ID, Epsilon: 0.5, Queries: []service.RangeQuery{{Lo: 0, Hi: 7}}})
			check(err)
			out = append(out, h, c, g)
			for e := 0; e < 2; e++ {
				rel, err := r.CloseEpoch(st.ID)
				check(err)
				out = append(out, rel)
			}
		}
		body, err := json.Marshal(out)
		check(err)
		return body
	}
	if one, four := run(1), run(4); string(one) != string(four) {
		t.Fatalf("releases differ between 1 and 4 shards:\n1: %.300s\n4: %.300s", one, four)
	}
}

// BenchmarkRouterOverhead measures the routing tax: the same histogram
// release drawn through a 1-shard router versus directly against the core
// it routes to. The delta is the routing-table lookup under the router's
// read lock — the perf gate keeps it honest.
func BenchmarkRouterOverhead(b *testing.B) {
	setup := func(b *testing.B) (r *Router, sessID, dsID string) {
		b.Helper()
		r, err := Open(service.Config{Seed: 1}, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(r.Close)
		pol, err := r.CreatePolicy(testPolicy)
		if err != nil {
			b.Fatal(err)
		}
		ds, err := r.CreateDataset(service.CreateDatasetRequest{
			PolicyID: pol.ID, Rows: [][]int{{1}, {2}, {3}, {5}, {8}, {13}},
		})
		if err != nil {
			b.Fatal(err)
		}
		sess, err := r.CreateSession(service.CreateSessionRequest{
			PolicyID: pol.ID, Budget: 1e12, DatasetID: ds.ID,
		})
		if err != nil {
			b.Fatal(err)
		}
		return r, sess.ID, ds.ID
	}

	b.Run("direct", func(b *testing.B) {
		r, sessID, dsID := setup(b)
		core := r.Core(0)
		req := service.HistogramRequest{DatasetID: dsID, Epsilon: 1e-6}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Histogram(sessID, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("router", func(b *testing.B) {
		r, sessID, dsID := setup(b)
		req := service.HistogramRequest{DatasetID: dsID, Epsilon: 1e-6}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Histogram(sessID, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
