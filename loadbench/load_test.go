package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A server stall must be charged to every request it delays: requests due
// while the only connection is stuck go out late, and their latency counts
// from when they were due, not from when they were finally sent.
func TestRunPhaseChargesStallToDelayedRequests(t *testing.T) {
	const stall = 100 * time.Millisecond
	var stalled atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if stalled.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
		_, _ = w.Write([]byte("{}"))
	}))
	defer srv.Close()

	var reqs []request
	for i := 1; i <= 20; i++ {
		reqs = append(reqs, request{due: time.Duration(i) * 10 * time.Millisecond, method: http.MethodGet, path: "/"})
	}
	res := runPhase(context.Background(), srv.URL, []*http.Client{newClient()}, reqs, nil)

	stallEnd := reqs[0].due + stall
	delayed := 0
	for i := range reqs {
		r, o := &reqs[i], &res.out[i]
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		if i == 0 || r.due >= stallEnd {
			continue
		}
		delayed++
		if got, min := o.latency(r), stallEnd-r.due; got < min {
			t.Errorf("request due at %v: latency %v, want at least %v (time queued behind the stall)", r.due, got, min)
		}
		if o.done-o.sent > stall/2 {
			t.Errorf("request due at %v: service time %v should be short; the stall belongs to its lag", r.due, o.done-o.sent)
		}
	}
	if delayed < 8 {
		t.Fatalf("only %d requests were due during the stall", delayed)
	}
}

func TestRunPhaseCountsUnsentAsFailed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := runPhase(ctx, srv.URL, []*http.Client{newClient()}, []request{{method: http.MethodGet, path: "/"}}, nil)
	if res.out[0].err != errUnsent {
		t.Fatalf("request after the deadline: err %v, want errUnsent", res.out[0].err)
	}
}

func TestPercentile(t *testing.T) {
	var ms100 []time.Duration
	for i := 100; i >= 1; i-- {
		ms100 = append(ms100, time.Duration(i)*time.Millisecond)
	}
	sortDurations(ms100)
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.95, 95 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{0.999, 100 * time.Millisecond},
		{1, 100 * time.Millisecond},
		{0, time.Millisecond},
	} {
		if got := percentile(ms100, c.q); got != c.want {
			t.Errorf("percentile(1..100ms, %g) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile([]time.Duration{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want it", got)
	}
}

func TestNumbers(t *testing.T) {
	body := []byte(`{"cumulative_raw":[9,9],"raw":[-1.5,2e-07,3],"empty":[],"remaining":1}`)
	got, err := numbers(nil, body, "raw")
	if err != nil || len(got) != 3 || got[0] != -1.5 || got[1] != 2e-07 || got[2] != 3 {
		t.Fatalf(`numbers(raw) = %v, %v; want [-1.5 2e-07 3] (not the "cumulative_raw" array)`, got, err)
	}
	if got, err := numbers(nil, body, "empty"); err != nil || len(got) != 0 {
		t.Fatalf("numbers(empty) = %v, %v", got, err)
	}
	if _, err := numbers(nil, body, "counts"); err == nil {
		t.Fatal("numbers found a missing key")
	}
	if _, err := numbers(nil, []byte(`{"counts":[1,x]}`), "counts"); err == nil {
		t.Fatal("numbers accepted a non-number")
	}
}

func TestCheckArray(t *testing.T) {
	inferred := arraySpec{"inferred", 3, 10}
	for _, c := range []struct {
		xs []float64
		ok bool
	}{
		{[]float64{0, 4, 10}, true},
		{[]float64{0, 4}, false},      // short
		{[]float64{0, 5, 4}, false},   // not monotone
		{[]float64{0, 4, 11}, false},  // above n
		{[]float64{-1, 4, 10}, false}, // below 0
	} {
		if err := checkArray(inferred, c.xs); (err == nil) != c.ok {
			t.Errorf("checkArray(%v) = %v, want ok=%v", c.xs, err, c.ok)
		}
	}
	if err := checkArray(arraySpec{"counts", 2, -1}, []float64{5, -3}); err != nil {
		t.Errorf("noisy counts need not be monotone: %v", err)
	}
}
