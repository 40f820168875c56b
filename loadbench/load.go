package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opClass is one kind of scheduled request.
type opClass int

const (
	opRange opClass = iota
	opHistogram
	opCumulative
	opBudgetRead
	opIngest
	opEpoch
	numOps
)

var opNames = [numOps]string{"range", "histogram", "cumulative", "budget_read", "ingest", "epoch_close"}

func (o opClass) isRelease() bool { return o == opRange || o == opHistogram || o == opCumulative }

// request is one scheduled operation of an open-loop phase. Bodies are
// built before the phase starts, so the timed path only sends them.
type request struct {
	due     time.Duration // intended send time, from the phase start
	op      opClass
	session int // index into the fixture sessions; -1 for stream traffic
	events  int // ingest batches: events in the batch
	appends int // ingest batches: append events among them
	epoch   int // epoch closes: the epoch the response reported
	method  string
	path    string
	ctype   string
	body    []byte
}

// outcome is what happened to one request. Offsets are from the phase start.
type outcome struct {
	sent, done time.Duration
	status     int
	bytes      int
	err        error // transport error, non-2xx status, or never sent
}

// latency is the time from the intended send to the last response byte, so
// a stall is charged to every request it delays (no coordinated omission).
func (o *outcome) latency(r *request) time.Duration { return o.done - r.due }

// lag is how long the request waited for a free connection past its due time.
func (o *outcome) lag(r *request) time.Duration { return o.sent - r.due }

var errUnsent = errors.New("not sent before the phase deadline")

// checkFunc validates one 2xx response body; a non-nil error is a
// correctness failure, not a failed operation.
type checkFunc func(r *request, body []byte) error

// phaseResult holds the outcomes of one open-loop phase, index-aligned with
// its requests.
type phaseResult struct {
	start    time.Time
	elapsed  time.Duration // phase start to the last response
	out      []outcome
	checkErr error // first response that failed its check
}

// runPhase sends reqs on their schedule over the given clients, one
// connection each. Each sender takes the next request in schedule order,
// sleeps until it is due and sends it; a request due while every sender is
// busy goes out late and its latency still counts from its due time.
// Requests not sent by the time ctx ends are recorded as failed.
func runPhase(ctx context.Context, base string, clients []*http.Client, reqs []request, check checkFunc) *phaseResult {
	res := &phaseResult{out: make([]outcome, len(reqs))}
	var (
		next     atomic.Int64
		errOnce  sync.Once
		checkErr error
		wg       sync.WaitGroup
	)
	res.start = time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r, o := &reqs[i], &res.out[i]
				if d := time.Until(res.start.Add(r.due)); d > 0 {
					sleep(d)
				}
				if ctx.Err() != nil {
					o.err = errUnsent
					continue
				}
				o.sent = time.Since(res.start)
				o.status, o.err = send(ctx, c, base, r, &buf)
				o.done = time.Since(res.start)
				o.bytes = buf.Len()
				if o.err != nil || check == nil {
					continue
				}
				if err := check(r, buf.Bytes()); err != nil {
					errOnce.Do(func() { checkErr = fmt.Errorf("%s %s: %w", r.method, r.path, err) })
				}
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(res.start)
	res.checkErr = checkErr
	return res
}

// sleep blocks the calling thread in nanosleep(2). time.Sleep rounds short
// waits up to the runtime's millisecond poll timeout, which on Linux adds
// ~0.7 ms to a 0.4 ms sleep; nanosleep overshoots by the kernel's timer
// slack (~50 µs), which keeps the generator's own lateness out of the
// latencies it reports.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// processCPU returns this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for an invalid who
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// send issues one request and reads the whole response body into buf.
func send(ctx context.Context, c *http.Client, base string, r *request, buf *bytes.Buffer) (int, error) {
	buf.Reset()
	req, err := http.NewRequestWithContext(ctx, r.method, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, err
	}
	if r.ctype != "" {
		req.Header.Set("Content-Type", r.ctype)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = buf.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return resp.StatusCode, fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %s: %.200s", r.method, r.path, resp.Status, bytes.TrimSpace(buf.Bytes()))
	}
	return resp.StatusCode, nil
}

// newClient returns a client that keeps exactly one connection to the server.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// percentile returns the nearest-rank q-quantile of sorted samples: the
// smallest sample with at least a q share of samples at or below it.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(k, len(sorted)-1))]
}

func sortDurations(ds []time.Duration) []time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// splitmix is the splitmix64 generator every input of a run is drawn from,
// so one seed gives the same datasets, schedule and request bodies.
type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// unit returns a uniform draw in (0, 1].
func (s *splitmix) unit() float64 { return (float64(s.next()>>11) + 1) / (1 << 53) }

// gap returns an exponential inter-arrival time for a Poisson process of
// the given rate per second.
func (s *splitmix) gap(rate float64) time.Duration {
	return time.Duration(-math.Log(s.unit()) / rate * float64(time.Second))
}
