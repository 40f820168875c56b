package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

type runConfig struct {
	w              workload
	seed           int64
	warmup, window time.Duration
	setups         int // set-ups per run; setup_s is their median
	trace          bool
	bin            string // blowfish-serve
	work           string
}

type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	attempted, failed int
	problems          []string // failed correctness checks
	e2e, layer        []metric
}

// phaseGrace bounds how long a phase may overrun its schedule before the
// requests still unsent are counted as failed.
const phaseGrace = 5 * time.Second

func run(ctx context.Context, cfg runConfig) (*result, error) {
	w := cfg.w
	in, err := makeInputs(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	runDir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(runDir)
	clients := []*http.Client{newClient(), newClient()}
	var (
		srv    *server
		fx     *fixtures
		setups []float64
	)
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	for i := 0; i < cfg.setups; i++ {
		if srv != nil {
			srv.kill()
			srv = nil
		}
		start := time.Now()
		s, err := startServer(cfg.bin, w.serverArgs(cfg.seed, filepath.Join(runDir, "data-"+strconv.Itoa(i))))
		if err != nil {
			return nil, err
		}
		srv = s
		if fx, err = setUp(srv, clients, w, in); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	g := splitmix{state: uint64(cfg.seed) ^ 0xa0761d6478bd642f}
	warmReqs := schedule(w, fx, &g, cfg.warmup)
	winReqs := schedule(w, fx, &g, cfg.window)

	var poll *poller
	if w.stream {
		poll = newPoller()
		pctx, stop := context.WithCancel(ctx)
		done := make(chan struct{})
		go func() {
			defer close(done)
			poll.run(pctx, newClient(), srv.base, fx.stream)
		}()
		defer func() {
			stop()
			<-done
		}()
	}
	check := responseCheck(fx)
	phase := func(reqs []request, d time.Duration) *phaseResult {
		pctx, cancel := context.WithTimeout(ctx, d+phaseGrace)
		defer cancel()
		return runPhase(pctx, srv.base, clients, reqs, check)
	}

	warm := phase(warmReqs, cfg.warmup)
	admin := newClient()
	before, err := srv.scrape(admin)
	if err != nil {
		return nil, err
	}
	cpu0, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	// A traced stream run samples the ingest queue-depth gauge, which a
	// before/after diff cannot see; the release workloads have no queue.
	var queueMax float64
	var scraping time.Duration // the traced run's own cost to the server
	var gauges *ticker
	if cfg.trace && w.stream {
		c := newClient()
		gauges = every(100*time.Millisecond, func() {
			start := time.Now()
			e, err := srv.scrape(c)
			scraping += time.Since(start)
			if err == nil {
				queueMax = max(queueMax, e.max("blowfish_ingest_queue_depth"))
			}
		})
	}
	client0 := processCPU()
	win := phase(winReqs, cfg.window)
	client1 := processCPU()
	if gauges != nil {
		gauges.stop()
	}
	cpu1, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSS()
	if err != nil {
		return nil, err
	}
	after, err := srv.scrape(admin)
	if err != nil {
		return nil, err
	}
	heap, err := srv.liveHeapMB(admin)
	if err != nil {
		return nil, err
	}

	res := &result{}
	for _, ph := range []*phaseResult{warm, win} {
		if ph.checkErr != nil {
			res.problems = append(res.problems, ph.checkErr.Error())
		}
	}
	led := tally(fx, [][]request{warmReqs, winReqs}, []*phaseResult{warm, win})
	ledgerMax, problems := checkLedgers(srv.base, admin, w, fx, led, false)
	res.problems = append(res.problems, problems...)

	var publish []time.Duration
	var pollStats [2]int
	if w.stream {
		pub, stats, problems := checkStream(srv.base, admin, poll, fx, led, winReqs, win)
		publish, pollStats = pub, stats
		res.problems = append(res.problems, problems...)
	}
	recoverS := 0.0
	if w.durable {
		start := time.Now()
		if err := srv.restart(); err != nil {
			return nil, err
		}
		if err := srv.waitHealthy(admin, 60*time.Second); err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		recoverS = time.Since(start).Seconds()
		admin.CloseIdleConnections()
		_, problems := checkLedgers(srv.base, admin, w, fx, led, true)
		res.problems = append(res.problems, problems...)
	}

	res.attempted = len(winReqs)
	ok := 0
	for i := range win.out {
		if win.out[i].err != nil {
			res.failed++
		} else {
			ok++
		}
	}
	if ok == 0 {
		return nil, fmt.Errorf("no request of the window succeeded (first error: %v)", firstErr(win))
	}
	lat := latencies(winReqs, win, func(opClass) bool { return true })
	p50, p99 := slicedPercentile(lat, 0.50), slicedPercentile(lat, 0.99)
	serverCPU, clientCPU := us(cpu1-cpu0)/float64(ok), us(client1-client0)/float64(ok)
	// The generator's CPU per request is the yardstick: its work per request
	// is fixed, and it runs the same kind of code on the same cores in the
	// same window as the server, so dividing by it cancels the host's speed,
	// which on a shared VM swings by a third within minutes.
	res.e2e = []metric{
		{"setup_s", medianFloat(setups), "s"},
		{"latency_p50_per_client_cpu", p50 * 1000 / clientCPU, "ratio"},
		{"server_cpu_per_client_cpu", serverCPU / clientCPU, "ratio"},
		{"server_live_heap_mb", heap, "MiB"},
	}
	if cfg.trace {
		res.layer = append([]metric{
			{"latency_p50_ms", p50, "ms"},
			{"latency_p99_ms", p99, "ms"},
			{"server_cpu_us_per_op", serverCPU, "us"},
			{"client_cpu_us_per_op", clientCPU, "us"},
			{"trace_overhead_pct", 100 * scraping.Seconds() / win.elapsed.Seconds(), "%"},
		}, layerMetrics(layerInputs{
			w: w, reqs: winReqs, win: win, d: diff(before, after), after: after, ok: ok,
			publish: publish, polls: pollStats, queueMax: queueMax,
			ledgerMax: ledgerMax, recoverS: recoverS, rss: rss,
		})...)
		if err := writeSpans(filepath.Join(cfg.work, "trace-"+w.name+".csv"), winReqs, win); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func firstErr(ph *phaseResult) error {
	for i := range ph.out {
		if ph.out[i].err != nil {
			return ph.out[i].err
		}
	}
	return nil
}

// --- set-up ----------------------------------------------------------------

// setUp waits for the fresh server and creates the workload's fixtures:
// the policy, the datasets (uploaded and indexed), the sessions, the
// stream, and one warm-up release of each kind per dataset.
func setUp(srv *server, clients []*http.Client, w workload, in *inputs) (*fixtures, error) {
	c := clients[0]
	if err := srv.waitHealthy(c, 30*time.Second); err != nil {
		return nil, err
	}
	fx := &fixtures{rows: w.rows}
	var pol struct{ ID string }
	if err := call(c, http.MethodPost, srv.base+"/v1/policies", in.policy, &pol); err != nil {
		return nil, err
	}
	fx.policy = pol.ID
	for _, rows := range in.datasets {
		body := append(fmt.Appendf(nil, `{"policy_id":%q,`, fx.policy), rows...)
		var ds datasetResp
		if err := call(c, http.MethodPost, srv.base+"/v1/datasets", body, &ds); err != nil {
			return nil, err
		}
		fx.datasets = append(fx.datasets, ds.ID)
	}
	fx.sessions = make([]string, w.sessions)
	fx.sessDS = make([]int, w.sessions)
	fx.warm = make([]int, w.sessions)
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for k, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := k; s < w.sessions; s += len(clients) {
				fx.sessDS[s] = s % w.datasets
				body := fmt.Appendf(nil, `{"policy_id":%q,"budget":%g,"dataset_id":%q}`, fx.policy, budget, fx.datasets[fx.sessDS[s]])
				var sess sessionResp
				if errs[k] = call(c, http.MethodPost, srv.base+"/v1/sessions", body, &sess); errs[k] != nil {
					return
				}
				fx.sessions[s] = sess.ID
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if w.stream {
		body := fmt.Appendf(nil, `{"policy_id":%q,"dataset_id":%q,"budget":%g,"epoch":{"epsilon":%g},"kinds":["histogram","cumulative"]}`,
			fx.policy, fx.datasets[0], budget, releaseEps)
		var st struct{ ID string }
		if err := call(c, http.MethodPost, srv.base+"/v1/streams", body, &st); err != nil {
			return nil, err
		}
		fx.stream = st.ID
		var rel epochRelease
		if err := call(c, http.MethodPost, srv.base+"/v1/streams/"+fx.stream+"/epochs", nil, &rel); err != nil {
			return nil, err
		}
		return fx, checkEpoch(&rel)
	}
	// Sessions are spread round-robin, so session d is the first of dataset d.
	for d := range fx.datasets {
		for _, op := range []opClass{opHistogram, opCumulative, opRange} {
			r := request{op: op, session: d, method: http.MethodPost}
			r.path = "/v1/sessions/" + fx.sessions[d] + "/releases/" + opNames[op]
			r.body = fmt.Appendf(nil, `{"dataset_id":%q,"epsilon":%g}`, fx.datasets[d], releaseEps)
			if op == opRange {
				r.body = fmt.Appendf(nil, `{"dataset_id":%q,"epsilon":%g,"queries":[{"lo":0,"hi":%d}]}`, fx.datasets[d], releaseEps, domainSize-1)
			}
			body, err := fetch(c, r.method, srv.base+r.path, r.body)
			if err != nil {
				return nil, err
			}
			if err := checkRelease(&r, body, fx.sessions[d], fx.rows); err != nil {
				return nil, err
			}
			fx.warm[d]++
		}
	}
	return fx, nil
}

// call sends body (JSON, or nothing) and decodes a 2xx JSON response into out.
func call(c *http.Client, method, url string, body []byte, out any) error {
	b, err := fetch(c, method, url, body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("%s %s: decoding response: %w", method, url, err)
	}
	return nil
}

// fetch sends one untimed request (set-up, checks, scrapes) and returns the
// body of its 2xx response.
func fetch(c *http.Client, method, url string, body []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var buf bytes.Buffer
	r := request{method: method, path: url, ctype: "application/json", body: body}
	if _, err := send(ctx, c, "", &r, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// responseCheck validates every 2xx response of a phase.
func responseCheck(fx *fixtures) checkFunc {
	return func(r *request, body []byte) error {
		switch r.op {
		case opIngest:
			var v eventsResp
			if err := json.Unmarshal(body, &v); err != nil {
				return err
			}
			if v.Accepted != r.events || v.Rejected != 0 {
				return fmt.Errorf("ingest: accepted %d of %d events, %d rejected", v.Accepted, r.events, v.Rejected)
			}
			return nil
		case opEpoch:
			var rel epochRelease
			if err := json.Unmarshal(body, &rel); err != nil {
				return err
			}
			r.epoch = rel.Epoch
			return checkEpoch(&rel)
		}
		return checkRelease(r, body, fx.sessions[r.session], fx.rows)
	}
}

// --- ledger checks ---------------------------------------------------------

// ledger is what the server acknowledged over a run.
type ledger struct {
	releases []int // acknowledged releases per session, warm-ups included
	unknown  []bool
	events   uint64 // acknowledged ingest events
	appends  int
}

func tally(fx *fixtures, reqs [][]request, phases []*phaseResult) *ledger {
	l := &ledger{releases: append([]int(nil), fx.warm...), unknown: make([]bool, len(fx.sessions))}
	for p, ph := range phases {
		for i := range ph.out {
			r, o := &reqs[p][i], &ph.out[i]
			switch {
			case r.op.isRelease() && o.err == nil:
				l.releases[r.session]++
			case r.op.isRelease() && o.err != errUnsent:
				// A request that failed in transport may or may not have
				// been charged.
				l.unknown[r.session] = true
			case r.op == opIngest && o.err == nil:
				l.events += uint64(r.events)
				l.appends += r.appends
			}
		}
	}
	return l
}

// checkLedgers reads back every session and dataset. Each session must
// have spent exactly its acknowledged releases × ε, or at least that after
// a crash restart (recovered); every dataset keeps its rows, and all of
// them are listed. It returns the longest session ledger seen.
func checkLedgers(base string, c *http.Client, w workload, fx *fixtures, l *ledger, recovered bool) (int, []string) {
	var problems []string
	longest := 0
	for s, id := range fx.sessions {
		var v sessionResp
		if err := call(c, http.MethodGet, base+"/v1/sessions/"+id, nil, &v); err != nil {
			problems = append(problems, err.Error())
			continue
		}
		longest = max(longest, len(v.Releases))
		want := float64(l.releases[s]) * releaseEps
		exact := !recovered && !l.unknown[s]
		if v.Spent < want-1e-9 || (exact && v.Spent > want+1e-9) {
			problems = append(problems, fmt.Sprintf("session %s spent %g after %d acknowledged releases of ε=%g (recovered=%v)",
				id, v.Spent, l.releases[s], releaseEps, recovered))
		}
	}
	if w.stream {
		return longest, problems
	}
	var list struct{ Datasets []datasetResp }
	if err := call(c, http.MethodGet, base+"/v1/datasets", nil, &list); err != nil {
		return longest, append(problems, err.Error())
	}
	if len(list.Datasets) != len(fx.datasets) {
		problems = append(problems, fmt.Sprintf("%d datasets listed, want %d", len(list.Datasets), len(fx.datasets)))
	}
	for _, ds := range list.Datasets {
		if ds.Rows != fx.rows {
			problems = append(problems, fmt.Sprintf("dataset %s has %d rows, want %d (recovered=%v)", ds.ID, ds.Rows, fx.rows, recovered))
		}
	}
	return longest, problems
}

// checkStream waits for the long-poller to hold every epoch the window
// closed, then closes one more epoch: it must count every acknowledged
// event and every appended row. It returns the window's publish latencies
// (intended send of a close → the poller holds that epoch) and the
// window's polls and useful polls.
func checkStream(base string, c *http.Client, p *poller, fx *fixtures, l *ledger, reqs []request, win *phaseResult) ([]time.Duration, [2]int, []string) {
	var problems []string
	var final epochRelease
	if err := call(c, http.MethodPost, base+"/v1/streams/"+fx.stream+"/epochs", nil, &final); err != nil {
		return nil, [2]int{}, []string{err.Error()}
	}
	if final.Events != l.events || final.Rows != fx.rows+l.appends {
		problems = append(problems, fmt.Sprintf("final epoch counts %d events and %d rows, want %d and %d",
			final.Events, final.Rows, l.events, fx.rows+l.appends))
	}
	if !p.waitFor(final.Epoch, 5*time.Second) {
		problems = append(problems, fmt.Sprintf("long-poller never received epoch %d", final.Epoch))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.checkErr != nil {
		problems = append(problems, p.checkErr.Error())
	}
	var publish []time.Duration
	for i := range reqs {
		r, o := &reqs[i], &win.out[i]
		if r.op != opEpoch || o.err != nil {
			continue
		}
		got, ok := p.recv[r.epoch]
		if !ok {
			problems = append(problems, fmt.Sprintf("epoch %d closed but never published to the poller", r.epoch))
			continue
		}
		publish = append(publish, got.Sub(win.start.Add(r.due)))
	}
	end := win.start.Add(win.elapsed)
	var stats [2]int
	for _, poll := range p.polls {
		if poll.at.After(win.start) && !poll.at.After(end) {
			stats[0]++
			if poll.useful {
				stats[1]++
			}
		}
	}
	return sortDurations(publish), stats, problems
}

// poller follows the stream's release cursor with wait_ms long-polls, as a
// live dashboard does, and records when each epoch first reached it.
type poller struct {
	mu       sync.Mutex
	recv     map[int]time.Time
	last     int
	polls    []pollRecord
	checkErr error
}

type pollRecord struct {
	at     time.Time
	useful bool // returned at least one release
}

func newPoller() *poller { return &poller{recv: make(map[int]time.Time), last: -1} }

func (p *poller) run(ctx context.Context, c *http.Client, base, stream string) {
	since := uint64(0)
	var buf bytes.Buffer
	for ctx.Err() == nil {
		poll := request{method: http.MethodGet, path: fmt.Sprintf("/v1/streams/%s/releases?since=%d&wait_ms=1000", stream, since)}
		_, err := send(ctx, c, base, &poll, &buf)
		now := time.Now()
		if ctx.Err() != nil {
			return
		}
		var v releasesResp
		if err == nil {
			err = json.Unmarshal(buf.Bytes(), &v)
		}
		p.mu.Lock()
		p.polls = append(p.polls, pollRecord{at: now, useful: len(v.Releases) > 0})
		if err != nil && p.checkErr == nil {
			p.checkErr = fmt.Errorf("long-poll: %w", err)
		}
		for i := range v.Releases {
			rel := &v.Releases[i]
			if _, seen := p.recv[rel.Epoch]; !seen {
				p.recv[rel.Epoch] = now
			}
			p.last = max(p.last, rel.Epoch)
			if err := checkEpoch(rel); err != nil && p.checkErr == nil {
				p.checkErr = err
			}
		}
		p.mu.Unlock()
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		since = v.NextSince
	}
}

// waitFor reports whether the poller holds epoch within timeout.
func (p *poller) waitFor(epoch int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		p.mu.Lock()
		done := p.last >= epoch
		p.mu.Unlock()
		if done {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// --- tracing ---------------------------------------------------------------

// ticker runs a function periodically on its own goroutine.
type ticker struct{ done, exited chan struct{} }

// every calls f every period until stop.
func every(period time.Duration, f func()) *ticker {
	t := &ticker{done: make(chan struct{}), exited: make(chan struct{})}
	go func() {
		defer close(t.exited)
		tk := time.NewTicker(period)
		defer tk.Stop()
		for {
			select {
			case <-t.done:
				return
			case <-tk.C:
				f()
			}
		}
	}()
	return t
}

// stop ends the calls and waits until the last one has returned.
func (t *ticker) stop() {
	close(t.done)
	<-t.exited
}

// writeSpans writes one client-side span per window request: its op, due,
// send and done offsets from the window start in µs, status and size.
func writeSpans(path string, reqs []request, ph *phaseResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "op,due_us,sent_us,done_us,status,bytes")
	for i := range reqs {
		r, o := &reqs[i], &ph.out[i]
		fmt.Fprintf(bw, "%s,%d,%d,%d,%d,%d\n", opNames[r.op], r.due.Microseconds(),
			o.sent.Microseconds(), o.done.Microseconds(), o.status, o.bytes)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
