package metrics

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("blowfish_test_total", "a counter")
	g := r.Gauge("blowfish_test_depth", "a gauge")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("blowfish_test_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 102.65; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	cum, _, _ := h.snapshot()
	// le=0.1 is inclusive: 0.05 and 0.1 land in the first bucket.
	want := []uint64{2, 3, 4, 5}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cumulative bucket %d = %d, want %d (all: %v)", i, cum[i], want[i], cum)
		}
	}
}

func TestVecChildrenAndIdentity(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("blowfish_test_requests_total", "by route", "route", "status")
	a := cv.With("/v1/x", "200")
	b := cv.With("/v1/x", "200")
	if a != b {
		t.Fatal("With returned distinct children for identical label values")
	}
	cv.With("/v1/y", "429").Add(2)
	a.Inc()
	out := r.Expose()
	for _, want := range []string{
		`blowfish_test_requests_total{route="/v1/x",status="200"} 1`,
		`blowfish_test_requests_total{route="/v1/y",status="429"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestVecPanics(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("blowfish_test_v_total", "v", "a")
	mustPanic(t, "wrong label count", func() { cv.With("x", "y") })
	mustPanic(t, "duplicate registration", func() { r.Counter("blowfish_test_v_total", "dup") })
	mustPanic(t, "invalid name", func() { r.Counter("1bad", "") })
	mustPanic(t, "no labels", func() { r.CounterVec("blowfish_test_nolabel", "") })
	mustPanic(t, "repeated label", func() { r.CounterVec("blowfish_test_rep", "", "a", "a") })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("blowfish_b_total", "second family")
	r.Gauge("blowfish_a_depth", "first family").Set(3)
	h := r.Histogram("blowfish_c_seconds", "hist", []float64{0.5, 5})
	c.Add(2)
	h.Observe(0.25)
	h.Observe(7)

	srv := httptest.NewServer(MergedHandler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != textContentType {
		t.Fatalf("content type = %q", ct)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	out := string(buf[:n])

	want := strings.Join([]string{
		"# HELP blowfish_a_depth first family",
		"# TYPE blowfish_a_depth gauge",
		"blowfish_a_depth 3",
		"# HELP blowfish_b_total second family",
		"# TYPE blowfish_b_total counter",
		"blowfish_b_total 2",
		"# HELP blowfish_c_seconds hist",
		"# TYPE blowfish_c_seconds histogram",
		`blowfish_c_seconds_bucket{le="0.5"} 1`,
		`blowfish_c_seconds_bucket{le="5"} 1`,
		`blowfish_c_seconds_bucket{le="+Inf"} 2`,
		"blowfish_c_seconds_sum 7.25",
		"blowfish_c_seconds_count 2",
		"",
	}, "\n")
	if out != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

func TestCollector(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector(func(emit func(Sample)) {
		emit(Sample{
			Name: "blowfish_session_budget_spent", Help: "spent", Kind: KindGauge,
			Labels: []Label{{Name: "session", Value: "s1"}}, Value: 0.25,
		})
		emit(Sample{
			Name: "blowfish_session_budget_spent", Kind: KindGauge,
			Labels: []Label{{Name: "session", Value: "s2"}}, Value: 0.5,
		})
	})
	out := r.Expose()
	for _, want := range []string{
		"# TYPE blowfish_session_budget_spent gauge",
		`blowfish_session_budget_spent{session="s1"} 0.25`,
		`blowfish_session_budget_spent{session="s2"} 0.5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE blowfish_session_budget_spent") != 1 {
		t.Fatalf("collector family header emitted more than once:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("blowfish_esc_total", "", "v").With("a\"b\\c\nd").Inc()
	out := r.Expose()
	if !strings.Contains(out, `blowfish_esc_total{v="a\"b\\c\nd"} 1`) {
		t.Fatalf("label escaping wrong:\n%s", out)
	}
}

func TestObserveSince(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("blowfish_since_seconds", "", nil)
	h.ObserveSince(time.Now().Add(-time.Millisecond))
	if h.Count() != 1 || h.Sum() < 0.001 {
		t.Fatalf("ObserveSince recorded count=%d sum=%g", h.Count(), h.Sum())
	}
}

// TestConcurrentMutation hammers every primitive from many goroutines;
// run under -race this is the data-race proof, and the totals prove no
// lost updates.
func TestConcurrentMutation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("blowfish_cc_total", "")
	g := r.Gauge("blowfish_cc_depth", "")
	h := r.Histogram("blowfish_cc_seconds", "", nil)
	cv := r.CounterVec("blowfish_cc_vec_total", "", "w")

	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := cv.With("shared")
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.001)
				child.Inc()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { // concurrent scrapes must not race with mutation
		for {
			select {
			case <-done:
				return
			default:
				_ = r.Expose()
			}
		}
	}()
	wg.Wait()
	close(done)

	const want = workers * per
	if c.Value() != want {
		t.Fatalf("counter = %d, want %d", c.Value(), want)
	}
	if g.Value() != want {
		t.Fatalf("gauge = %d, want %d", g.Value(), want)
	}
	if h.Count() != want {
		t.Fatalf("histogram count = %d, want %d", h.Count(), want)
	}
	if got, wantSum := h.Sum(), 0.001*want; math.Abs(got-wantSum) > 1e-6 {
		t.Fatalf("histogram sum = %g, want %g", got, wantSum)
	}
	if cv.With("shared").Value() != want {
		t.Fatalf("vec child = %d, want %d", cv.With("shared").Value(), want)
	}
}
