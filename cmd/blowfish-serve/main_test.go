package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"blowfish/internal/service"
	"blowfish/internal/shard"
	"blowfish/internal/wal"
)

// runMainEnv, when set, makes the test binary run the real main with its
// own command line instead of the tests, so a test can start the server
// exactly as the blowfish-serve binary runs it.
const runMainEnv = "BLOWFISH_SERVE_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestLogRequestsQuietAllocs pins the access log's cost on a server that
// does not log requests: nothing beyond the handler's own allocations.
func TestLogRequestsQuietAllocs(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(&bytes.Buffer{}, &slog.HandlerOptions{Level: slog.LevelWarn}))
	h := logRequests(logger, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	w := httptest.NewRecorder()
	r := httptest.NewRequest("GET", "/v1/healthz", nil)
	if n := testing.AllocsPerRun(100, func() { h.ServeHTTP(w, r) }); n != 0 {
		t.Fatalf("logRequests at warn: %v allocs per request, want 0", n)
	}
}

// TestLogRequestsDebugRecord checks that a debug-level server still logs
// one record per request with its method, path and status.
func TestLogRequestsDebugRecord(t *testing.T) {
	var out bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&out, &slog.HandlerOptions{Level: slog.LevelDebug}))
	h := logRequests(logger, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("DELETE", "/v1/streams/stream-1", nil))
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if len(lines) != 1 {
		t.Fatalf("got %d log records, want 1:\n%s", len(lines), out.String())
	}
	var rec struct {
		Msg    string `json:"msg"`
		Method string `json:"method"`
		Path   string `json:"path"`
		Status int    `json:"status"`
	}
	if err := json.Unmarshal(lines[0], &rec); err != nil {
		t.Fatalf("decode %q: %v", lines[0], err)
	}
	if rec.Msg != "request" || rec.Method != "DELETE" || rec.Path != "/v1/streams/stream-1" || rec.Status != http.StatusTeapot {
		t.Fatalf("record = %+v", rec)
	}
}

// TestServeShardedGracefulShutdown runs main as a durable 4-shard server
// with -fsync interval, sends it about a second of mixed traffic from 64
// concurrent loopback clients over sessions, datasets and streams on
// every shard, and stops it with SIGINT while one more client holds a
// connection that never sends a request to the API listener and another to
// the admin listener. The server must exit 0 without waiting out its drain
// deadline or abandoning a goroutine, and each shard's final snapshot must
// cover its whole WAL. Reopening the directory must show every acknowledged
// release, appended row and epoch close, and nothing more.
func TestServeShardedGracefulShutdown(t *testing.T) {
	const (
		shards   = 4
		clients  = 64
		window   = time.Second
		baseRows = 20
		// eps is a power of two, so a ledger's spend is exactly the
		// number of charges times eps.
		eps = 1.0 / 64
		// seed is the server's -seed; the directory keeps it, and the
		// reopen below must give the same one.
		seed = 7
	)
	dir := filepath.Join(t.TempDir(), "data")
	freeAddr := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		return ln.Addr().String()
	}
	addr, adminAddr := freeAddr(), freeAddr()

	var stderr bytes.Buffer
	// The 2 s drain deadline is shorter than the five seconds after which
	// http.Server.Shutdown itself gives up on a connection that never sent
	// a request, so a silent connection left open fails the log check below.
	cmd := exec.Command(os.Args[0], "-addr", addr, "-metrics-addr", adminAddr, "-drain", "2s",
		"-shards", strconv.Itoa(shards), "-data-dir", dir, "-fsync", "interval", "-seed", strconv.Itoa(seed))
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	stopped := false
	defer func() {
		if !stopped {
			_ = cmd.Process.Kill()
			<-exited
		}
	}()

	base := "http://" + addr
	tr := &http.Transport{MaxIdleConnsPerHost: clients}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	// send issues one request and decodes a 2xx body into out. A 429 (the
	// ingest queue is full) is retried after a pause; any other status
	// fails the request.
	send := func(method, path string, body, out any) error {
		var b []byte
		if body != nil {
			var err error
			if b, err = json.Marshal(body); err != nil {
				return err
			}
		}
		for {
			req, err := http.NewRequest(method, base+path, bytes.NewReader(b))
			if err != nil {
				return err
			}
			resp, err := hc.Do(req)
			if err != nil {
				return fmt.Errorf("%s %s: %w", method, path, err)
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case err != nil:
				return fmt.Errorf("%s %s: reading body: %w", method, path, err)
			case resp.StatusCode == http.StatusTooManyRequests:
				time.Sleep(5 * time.Millisecond)
				continue
			case resp.StatusCode/100 != 2:
				return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, data)
			case out != nil:
				return json.Unmarshal(data, out)
			}
			return nil
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	for start := time.Now(); send("GET", "/v1/healthz", nil, nil) != nil; {
		select {
		case err := <-exited:
			stopped = true
			t.Fatalf("server exited before serving: %v\n%s", err, stderr.String())
		case <-time.After(20 * time.Millisecond):
		}
		if time.Since(start) > 10*time.Second {
			t.Fatal("server not serving after 10s")
		}
	}

	// Eight datasets, checked to cover every shard; two sessions and one
	// stream live with each.
	var pol service.PolicyResponse
	must(send("POST", "/v1/policies", service.CreatePolicyRequest{
		Domain: []service.AttrSpec{{Name: "v", Size: 64}}, Graph: service.GraphSpec{Kind: "l1", Theta: 8},
	}, &pol))
	rows := make([][]int, baseRows)
	for i := range rows {
		rows[i] = []int{i % 64}
	}
	var datasets, sessions, streams []string
	owned := make(map[int]bool)
	for i := 0; i < 8; i++ {
		var ds service.DatasetResponse
		must(send("POST", "/v1/datasets", service.CreateDatasetRequest{PolicyID: pol.ID, Rows: rows}, &ds))
		datasets = append(datasets, ds.ID)
		owned[shard.ShardFor(ds.ID, shards)] = true
		for j := 0; j < 2; j++ {
			var sess service.SessionResponse
			must(send("POST", "/v1/sessions", service.CreateSessionRequest{PolicyID: pol.ID, Budget: 1e6, DatasetID: ds.ID}, &sess))
			sessions = append(sessions, sess.ID)
		}
		var st service.StreamResponse
		must(send("POST", "/v1/streams", service.CreateStreamRequest{
			PolicyID: pol.ID, DatasetID: ds.ID, Budget: 1e6, Epoch: service.EpochSpec{Epsilon: eps},
		}, &st))
		streams = append(streams, st.ID)
	}
	if len(owned) != shards {
		t.Fatalf("datasets %v cover %d of %d shards", datasets, len(owned), shards)
	}

	releases := make([]atomic.Int64, len(sessions)) // acked, per session
	appended := make([]atomic.Int64, len(datasets)) // acked rows, per dataset
	closes := make([]atomic.Int64, len(streams))    // acked, per stream
	// step sends request i of the mix: per 16, five range releases, three
	// histograms, a cumulative, a budget read, three 4-row appends, an
	// epoch close, a long-poll and a dataset read.
	step := func(i int, since []uint64) error {
		k := i / 16
		s, d, st := k%len(sessions), k%len(datasets), k%len(streams)
		sessPath, ds := "/v1/sessions/"+sessions[s], datasets[s/2]
		var err error
		switch i % 16 {
		case 0, 1, 2, 3, 4:
			lo := k % 32
			err = send("POST", sessPath+"/releases/range", service.RangeRequest{
				DatasetID: ds, Epsilon: eps, Queries: []service.RangeQuery{{Lo: lo, Hi: lo + 31}},
			}, nil)
		case 5, 6, 7:
			err = send("POST", sessPath+"/releases/histogram", service.HistogramRequest{DatasetID: ds, Epsilon: eps}, nil)
		case 8:
			err = send("POST", sessPath+"/releases/cumulative", service.CumulativeRequest{DatasetID: ds, Epsilon: eps}, nil)
		case 9:
			return send("GET", sessPath, nil, nil)
		case 10, 11, 12:
			evs := make([]service.EventWire, 4)
			for j := range evs {
				evs[j] = service.EventWire{Op: "append", Row: []int{(i + j) % 64}}
			}
			if err := send("POST", "/v1/datasets/"+datasets[d]+"/events", service.EventsRequest{Events: evs}, nil); err != nil {
				return err
			}
			appended[d].Add(int64(len(evs)))
			return nil
		case 13:
			if err := send("POST", "/v1/streams/"+streams[st]+"/epochs", nil, nil); err != nil {
				return err
			}
			closes[st].Add(1)
			return nil
		case 14:
			var out service.StreamReleasesResponse
			err := send("GET", fmt.Sprintf("/v1/streams/%s/releases?since=%d&wait_ms=20", streams[st], since[st]), nil, &out)
			since[st] = out.NextSince
			return err
		default:
			return send("GET", "/v1/datasets/"+datasets[d], nil, nil)
		}
		if err == nil {
			releases[s].Add(1)
		}
		return err
	}
	// The silent clients connect before the traffic, so the server has
	// accepted their connections well before SIGINT, and hold them open
	// across the shutdown.
	for _, a := range []string{addr, adminAddr} {
		silent, err := net.Dial("tcp", a)
		if err != nil {
			t.Fatal(err)
		}
		defer silent.Close()
	}

	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	var sent atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			since := make([]uint64, len(streams))
			// Stepping by clients+1 walks every client through the mix.
			for i := c; time.Now().Before(deadline); i += clients + 1 {
				if err := step(i, since); err != nil {
					t.Error(err)
					return
				}
				sent.Add(1)
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	t.Logf("%d requests from %d clients in %v", sent.Load(), clients, window)

	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		stopped = true
		if err != nil {
			t.Fatalf("server exit after SIGINT: %v\n%s", err, stderr.String())
		}
	case <-time.After(15 * time.Second):
		_ = cmd.Process.Kill()
		<-exited
		stopped = true
		t.Fatalf("server still running 15s after SIGINT\n%s", stderr.String())
	}
	logged := stderr.Bytes()
	for _, bad := range []string{"level=ERROR", "leaked", "drain incomplete"} {
		if bytes.Contains(logged, []byte(bad)) {
			t.Fatalf("server log has %q:\n%s", bad, logged)
		}
	}
	if !bytes.Contains(logged, []byte("msg=stopped")) {
		t.Fatalf("server log has no stop record:\n%s", logged)
	}

	for k := 0; k < shards; k++ {
		sub := filepath.Join(dir, fmt.Sprintf("shard-%d", k))
		lsn, payload, err := wal.LatestSnapshot(sub)
		if err != nil || payload == nil {
			t.Fatalf("shard %d: no final snapshot (err %v)", k, err)
		}
		tail := 0
		if err := wal.Replay(sub, lsn, func(wal.Record) error { tail++; return nil }); err != nil {
			t.Fatal(err)
		}
		if tail != 0 {
			t.Fatalf("shard %d: %d WAL records past the final snapshot at lsn %d", k, tail, lsn)
		}
	}

	r, err := shard.Open(service.Config{Seed: seed, Durability: service.DurabilityConfig{Dir: dir}}, shards)
	if err != nil {
		t.Fatalf("reopening %s: %v", dir, err)
	}
	defer r.Close()
	placed := make(map[int]bool)
	for i, id := range sessions {
		got, err := r.GetSession(id)
		must(err)
		if want := float64(releases[i].Load()) * eps; got.Spent != want {
			t.Errorf("session %s spent %v after restart, want %d acked releases × %v = %v", id, got.Spent, releases[i].Load(), eps, want)
		}
		placed[r.ShardOf(id)] = true
	}
	if len(placed) != shards {
		t.Errorf("sessions recovered onto %d of %d shards", len(placed), shards)
	}
	for i, id := range datasets {
		got, err := r.GetDataset(id)
		must(err)
		if want := baseRows + int(appended[i].Load()); got.Rows != want {
			t.Errorf("dataset %s has %d rows after restart, want %d base + %d acked appends", id, got.Rows, baseRows, appended[i].Load())
		}
	}
	for i, id := range streams {
		got, err := r.GetStream(id)
		must(err)
		if n := closes[i].Load(); got.Epoch != int(n) || got.Spent != float64(n)*eps {
			t.Errorf("stream %s at epoch %d with spent %v after restart, want %d acked closes × %v", id, got.Epoch, got.Spent, n, eps)
		}
	}
}
