package server

// Crash-recovery tests. The deterministic contract under test: with
// fsync=always, every operation the server acknowledged survives kill -9 —
// budget spend is monotone (never lower than any acked charge), no acked
// ingest event is lost, and a stream's post-recovery releases are
// bit-for-bit what a never-crashed server with the same base seed and
// creates would have produced.
//
// TestCrashRecovery re-executes this test binary as a child process (see
// TestMain) running a real durable HTTP server, drives it over HTTP,
// SIGKILLs it mid-ingest, and recovers the data directory in-process.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"

	"blowfish"

	"blowfish/internal/service"
	"blowfish/internal/wal"
)

const crashChildEnv = "BLOWFISH_CRASH_CHILD_DIR"

// TestMain turns the test binary into a durable server when re-executed as
// the crash child: it serves until killed, never returning.
func TestMain(m *testing.M) {
	if dir := os.Getenv(crashChildEnv); dir != "" {
		runCrashChild(dir)
		return // unreachable: runCrashChild blocks until killed
	}
	os.Exit(m.Run())
}

// runCrashChild serves a durable server on a random port, writing the
// address to <dir>/../addr for the parent, with the one shard's WAL under
// <dir>/shard-0.
func runCrashChild(dir string) {
	srv, err := openServer(service.Config{Durability: service.DurabilityConfig{Dir: dir, Fsync: "always"}})
	if err != nil {
		fmt.Fprintf(os.Stderr, "crash child: %v\n", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "crash child: %v\n", err)
		os.Exit(1)
	}
	addrFile := filepath.Join(filepath.Dir(dir), "addr")
	if err := os.WriteFile(addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "crash child: %v\n", err)
		os.Exit(1)
	}
	_ = http.Serve(ln, srv)
	select {} // hold until SIGKILL
}

// httpJSON posts (or gets) JSON against the child server.
func httpJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// crashGraphSpec drives the kill -9 harness through the custom-graph path:
// a composed union of the line graph and an explicit wrap edge over v:16.
// The crash child registers it over HTTP and the control server replays
// it, so recovery must rebuild the identical compiled plan from the
// journaled spec for the bit-for-bit assertions below to hold.
var crashGraphSpec = service.GraphSpec{Kind: "compose", Op: "union", Graphs: []service.GraphSpec{
	{Kind: "line"},
	{Kind: "explicit", Edges: [][2][]int{{{0}, {15}}}},
}}

// abandon tears down a durable server the way a test stands in for a
// crash: background machinery stops, but no final checkpoint is taken and
// the registries are left as they are.
func abandon(s *Server) {
	s.router.Abandon()
}

// appendRows submits one events batch of the given rows.
func appendRows(t *testing.T, s *Server, dsID string, rows [][]int) service.EventsResponse {
	t.Helper()
	evs := make([]service.EventWire, len(rows))
	for i, r := range rows {
		evs[i] = service.EventWire{Op: "append", Row: r}
	}
	w := do(t, s, "POST", "/v1/datasets/"+dsID+"/events", service.EventsRequest{Events: evs})
	if w.Code != http.StatusAccepted {
		t.Fatalf("events: %d %s", w.Code, w.Body.String())
	}
	return decode[service.EventsResponse](t, w)
}

// TestCrashRecovery is the kill -9 harness (the CI `recovery` job runs it
// with -race): a child process serves durably, the parent ingests acked
// batches and closes epochs, then SIGKILLs the child mid-ingest and
// recovers the directory in-process.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	root := t.TempDir()
	dir := filepath.Join(root, "data")

	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	}()

	// Wait for the child to publish its address.
	addrFile := filepath.Join(root, "addr")
	var base string
	for i := 0; i < 200; i++ {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			base = "http://" + string(b)
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if base == "" {
		t.Fatal("crash child never published an address")
	}

	// --- drive the child over HTTP -----------------------------------
	var pol service.PolicyResponse
	httpJSON(t, "POST", base+"/v1/policies", service.CreatePolicyRequest{
		Domain: []service.AttrSpec{{Name: "v", Size: 16}},
		Graph:  crashGraphSpec,
	}, &pol)
	if pol.Edges != 16 || pol.Components != 1 {
		t.Fatalf("custom-graph policy = %+v, want 16 edges in 1 component (line + wrap)", pol)
	}

	var dsA, dsB service.DatasetResponse
	httpJSON(t, "POST", base+"/v1/datasets", service.CreateDatasetRequest{PolicyID: pol.ID}, &dsA)
	httpJSON(t, "POST", base+"/v1/datasets", service.CreateDatasetRequest{PolicyID: pol.ID}, &dsB)

	// Two streams: A takes the mid-ingest kill, B is quiesced before the
	// kill and carries the bit-for-bit assertion.
	var stA, stB service.StreamResponse
	streamOn := func(polID, dsID string) service.CreateStreamRequest {
		return service.CreateStreamRequest{PolicyID: polID, DatasetID: dsID, Budget: 3.0, Epoch: service.EpochSpec{Epsilon: 0.5}}
	}
	httpJSON(t, "POST", base+"/v1/streams", streamOn(pol.ID, dsA.ID), &stA)
	httpJSON(t, "POST", base+"/v1/streams", streamOn(pol.ID, dsB.ID), &stB)

	ingest := func(dsID string, vals []int) service.EventsResponse {
		evs := make([]service.EventWire, len(vals))
		for i, v := range vals {
			evs[i] = service.EventWire{Op: "append", Row: []int{v}}
		}
		var out service.EventsResponse
		code := httpJSON(t, "POST", base+"/v1/datasets/"+dsID+"/events",
			service.EventsRequest{Events: evs}, &out)
		if code != http.StatusAccepted {
			t.Fatalf("ingest on %s: status %d", dsID, code)
		}
		return out
	}
	valsA1 := []int{1, 2, 3, 4, 5, 5, 5}
	valsB1 := []int{8, 9, 9, 10}
	ingest(dsA.ID, valsA1)
	ackB := ingest(dsB.ID, valsB1)

	closeEpoch := func(stID string) service.EpochReleaseWire {
		var rel service.EpochReleaseWire
		code := httpJSON(t, "POST", base+"/v1/streams/"+stID+"/epochs", nil, &rel)
		if code != http.StatusOK {
			t.Fatalf("epoch close on %s: status %d", stID, code)
		}
		return rel
	}
	ackedA1 := closeEpoch(stA.ID)
	ackedA2 := closeEpoch(stA.ID)
	ackedB1 := closeEpoch(stB.ID)

	// --- kill -9 mid-ingest ------------------------------------------
	// Storm dataset A with 20-event batches from one sequential client
	// and kill while they are in flight: everything above is acked and
	// must survive, and so must every storm batch that got its 202. At
	// most the one batch in flight at the kill may survive unacked
	// (durable before its 202 was sent), and no batch is ever torn.
	const stormBatch = 20
	var stormAcked int // written by the storm goroutine, read after stormDone
	stop := make(chan struct{})
	stormDone := make(chan struct{})
	go func() {
		defer close(stormDone)
		cl := &http.Client{Timeout: 2 * time.Second}
		n := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			evs := make([]service.EventWire, stormBatch)
			for i := range evs {
				evs[i] = service.EventWire{Op: "append", Row: []int{(n + i) % 16}}
			}
			n++
			b, _ := json.Marshal(service.EventsRequest{Events: evs})
			resp, err := cl.Post(base+"/v1/datasets/"+dsA.ID+"/events", "application/json", bytes.NewReader(b))
			if err != nil {
				return // child died mid-request: expected
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusAccepted {
				stormAcked++
			}
		}
	}()
	time.Sleep(60 * time.Millisecond) // let the storm land mid-flight
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	killed = true
	_, _ = cmd.Process.Wait()
	close(stop)
	<-stormDone

	// --- recover in-process ------------------------------------------
	rec, err := openServer(service.Config{Durability: service.DurabilityConfig{Dir: dir, Fsync: "always"}})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer abandon(rec)

	// Budget spend is monotone: exactly the acked charges for both
	// streams (no close was in flight at the kill).
	entAst, entAsess := rec.router.Core(0).StreamHandles(stA.ID)
	entBst, entBsess := rec.router.Core(0).StreamHandles(stB.ID)
	if entAst == nil || entBst == nil {
		t.Fatalf("streams not recovered: %v", rec.router.Core(0).StreamIDs())
	}
	if got := entAsess.Accountant().Spent(); got != 1.0 {
		t.Fatalf("stream A spent = %v after recovery, want 1.0 (two acked 0.5 closes)", got)
	}
	if got := entBsess.Accountant().Spent(); got != 0.5 {
		t.Fatalf("stream B spent = %v after recovery, want 0.5", got)
	}

	// No acked ingest event is lost.
	if got := rec.router.Core(0).DatasetTable(dsB.ID).LastSeq(); got < ackB.LastSeq {
		t.Fatalf("dataset B recovered seq %d < acked %d", got, ackB.LastSeq)
	}
	if got := rec.router.Core(0).DatasetHandle(dsB.ID).Len(); got != len(valsB1) {
		t.Fatalf("dataset B recovered %d rows, want %d", got, len(valsB1))
	}
	acked := len(valsA1) + stormBatch*stormAcked
	if got := rec.router.Core(0).DatasetHandle(dsA.ID).Len(); got != acked && got != acked+stormBatch {
		t.Fatalf("dataset A recovered %d rows after %d acked storm batches, want %d, or %d with the batch in flight",
			got, stormAcked, acked, acked+stormBatch)
	}
	t.Logf("storm: %d batches acked before the kill", stormAcked)

	// Acked pre-crash releases are in the recovered buffers bit-for-bit.
	for _, tc := range []struct {
		st    *blowfish.Stream
		want  []service.EpochReleaseWire
		label string
	}{
		{entAst, []service.EpochReleaseWire{ackedA1, ackedA2}, "A"},
		{entBst, []service.EpochReleaseWire{ackedB1}, "B"},
	} {
		got := tc.st.ExportState().Releases
		if len(got) != len(tc.want) {
			t.Fatalf("stream %s recovered %d releases, want %d", tc.label, len(got), len(tc.want))
		}
		for i, w := range tc.want {
			if got[i].Seq != w.Seq || got[i].Epoch != w.Epoch || !reflect.DeepEqual(got[i].Histogram, w.Histogram) {
				t.Fatalf("stream %s release %d diverges:\nrecovered %+v\nacked     %+v", tc.label, i, got[i], w)
			}
		}
	}

	// Bit-for-bit vs the no-crash run: an in-memory control server with
	// the crashed server's base seed repeats its creates in order, so its
	// stream B has the same id and key, and replays the acked operation
	// sequence for stream B; then compare the post-recovery epoch close.
	ctl := newServer(t, service.Config{})
	polID := mustCreatePolicy(t, ctl, service.CreatePolicyRequest{
		Domain: []service.AttrSpec{{Name: "v", Size: 16}},
		Graph:  crashGraphSpec,
	})
	ctlA := mustCreateDataset(t, ctl, service.CreateDatasetRequest{PolicyID: polID})
	ctlDS := mustCreateDataset(t, ctl, service.CreateDatasetRequest{PolicyID: polID})
	mustCreateStream(t, ctl, streamOn(polID, ctlA))
	ctlStream := decode[service.StreamResponse](t, do(t, ctl, "POST", "/v1/streams", streamOn(polID, ctlDS)))
	if ctlStream.ID != stB.ID {
		t.Fatalf("control stream B is %s, crashed server's is %s", ctlStream.ID, stB.ID)
	}
	rowsB := make([][]int, len(valsB1))
	for i, v := range valsB1 {
		rowsB[i] = []int{v}
	}
	appendRows(t, ctl, ctlDS, rowsB)
	ctlRel1 := decode[service.EpochReleaseWire](t, do(t, ctl, "POST", "/v1/streams/"+ctlStream.ID+"/epochs", nil))
	if !reflect.DeepEqual(ctlRel1.Histogram, ackedB1.Histogram) {
		t.Fatalf("control epoch 1 diverges from the acked pre-crash release:\n%v\n%v", ctlRel1.Histogram, ackedB1.Histogram)
	}
	ctlRel2 := decode[service.EpochReleaseWire](t, do(t, ctl, "POST", "/v1/streams/"+ctlStream.ID+"/epochs", nil))
	recRel2, err := entBst.CloseEpoch()
	if err != nil {
		t.Fatalf("post-recovery close: %v", err)
	}
	if !reflect.DeepEqual(recRel2.Histogram, ctlRel2.Histogram) {
		t.Fatalf("post-recovery release diverges from the no-crash run:\nrecovered %v\ncontrol   %v", recRel2.Histogram, ctlRel2.Histogram)
	}
	if recRel2.Seq != ctlRel2.Seq || recRel2.Epoch != ctlRel2.Epoch {
		t.Fatalf("post-recovery cursor diverges: %+v vs %+v", recRel2, ctlRel2)
	}
	ctl.Close()
}

// TestGracefulShutdownPreservesAckedEvents pins the Close ordering: every
// acked events batch was applied before its 202, so the final snapshot
// holds it and the batch survives a graceful restart.
func TestGracefulShutdownPreservesAckedEvents(t *testing.T) {
	dir := t.TempDir()
	s, err := openServer(service.Config{Durability: service.DurabilityConfig{Dir: dir, Fsync: "never"}})
	if err != nil {
		t.Fatal(err)
	}
	polID := mustCreatePolicy(t, s, service.CreatePolicyRequest{
		Domain: []service.AttrSpec{{Name: "v", Size: 8}},
		Graph:  service.GraphSpec{Kind: "full"},
	})
	dsID := mustCreateDataset(t, s, service.CreateDatasetRequest{PolicyID: polID})
	evs := make([]service.EventWire, 500)
	for i := range evs {
		evs[i] = service.EventWire{Op: "append", Row: []int{i % 8}}
	}
	w := do(t, s, "POST", "/v1/datasets/"+dsID+"/events", service.EventsRequest{Events: evs})
	if w.Code != http.StatusAccepted {
		t.Fatalf("events: %d %s", w.Code, w.Body.String())
	}
	ack := decode[service.EventsResponse](t, w)
	if ack.Accepted != 500 {
		t.Fatalf("accepted %d", ack.Accepted)
	}
	// Close immediately: the final snapshot must hold the batch.
	s.Close()

	r, err := openServer(service.Config{Durability: service.DurabilityConfig{Dir: dir, Fsync: "never"}})
	if err != nil {
		t.Fatal(err)
	}
	defer abandon(r)
	core := r.router.Core(0)
	if !core.HasDataset(dsID) {
		t.Fatal("dataset not recovered")
	}
	if got := core.DatasetHandle(dsID).Len(); got != 500 {
		t.Fatalf("recovered %d rows, want all 500 acked events", got)
	}
	if got := core.DatasetTable(dsID).LastSeq(); got != ack.LastSeq {
		t.Fatalf("recovered seq cursor %d, want %d", got, ack.LastSeq)
	}
}

// TestAbandonKeepsAckedEvents pins what a 202 from the events endpoint
// means: the batch is journaled and applied before the response. One batch
// is posted, the server is abandoned at once — no drain, no final
// checkpoint, as a crash would leave it — and the reopened directory holds
// every row, with the table cursor at the ack's last_seq.
func TestAbandonKeepsAckedEvents(t *testing.T) {
	dir := t.TempDir()
	cfg := service.Config{Durability: service.DurabilityConfig{Dir: dir, Fsync: "always"}}
	s, err := openServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	polID := mustCreatePolicy(t, s, service.CreatePolicyRequest{
		Domain: []service.AttrSpec{{Name: "v", Size: 8}},
		Graph:  service.GraphSpec{Kind: "full"},
	})
	dsID := mustCreateDataset(t, s, service.CreateDatasetRequest{PolicyID: polID, Rows: lineRows(5, 8)})
	rows := make([][]int, 300)
	for i := range rows {
		rows[i] = []int{i % 8}
	}
	ack := appendRows(t, s, dsID, rows)
	abandon(s)

	r, err := openServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer abandon(r)
	core := r.router.Core(0)
	if got := core.DatasetHandle(dsID).Len(); got != 5+len(rows) {
		t.Fatalf("recovered %d rows, want %d (5 uploaded + %d acked events)", got, 5+len(rows), len(rows))
	}
	if got := core.DatasetTable(dsID).LastSeq(); got != ack.LastSeq || ack.LastSeq != uint64(len(rows)) {
		t.Fatalf("recovered seq cursor %d, ack last_seq %d, want both %d", got, ack.LastSeq, len(rows))
	}
}

// TestRecoveryPropertyInterleavings is the seeded property test: for
// random interleavings of ingest batches, ad-hoc releases, epoch closes
// and checkpoints, the recovered server is bit-for-bit the live server —
// index counts, accountant spend, stream cursors and buffers.
func TestRecoveryPropertyInterleavings(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 99))
			dir := t.TempDir()
			live, err := openServer(service.Config{Durability: service.DurabilityConfig{Dir: dir, Fsync: "never"}})
			if err != nil {
				t.Fatal(err)
			}
			polID := mustCreatePolicy(t, live, service.CreatePolicyRequest{
				Domain: []service.AttrSpec{{Name: "v", Size: 12}},
				Graph:  service.GraphSpec{Kind: "l1", Theta: 2},
			})
			dsID := mustCreateDataset(t, live, service.CreateDatasetRequest{
				PolicyID: polID, Rows: lineRows(30, 12),
			})
			sessID := mustCreateSession(t, live, service.CreateSessionRequest{
				PolicyID: polID, Budget: 1000,
			})
			w := do(t, live, "POST", "/v1/streams", service.CreateStreamRequest{
				PolicyID: polID, DatasetID: dsID, Budget: 1000,
				Epoch: service.EpochSpec{Epsilon: 0.25},
				Kinds: []string{"histogram", "cumulative"},
			})
			if w.Code != http.StatusCreated {
				t.Fatalf("stream: %d %s", w.Code, w.Body.String())
			}
			stID := decode[service.StreamResponse](t, w).ID

			for op := 0; op < 120; op++ {
				switch rng.IntN(10) {
				case 0, 1, 2, 3: // ingest batch (acked)
					n := 1 + rng.IntN(30)
					rows := make([][]int, n)
					for i := range rows {
						rows[i] = []int{rng.IntN(12)}
					}
					appendRows(t, live, dsID, rows)
				case 4, 5: // ad-hoc release
					kind := []string{"histogram", "cumulative", "range"}[rng.IntN(3)]
					var body any
					switch kind {
					case "range":
						body = service.RangeRequest{DatasetID: dsID, Epsilon: 0.1, Queries: []service.RangeQuery{{Lo: 0, Hi: 5}}}
					case "cumulative":
						body = service.CumulativeRequest{DatasetID: dsID, Epsilon: 0.1}
					default:
						body = service.HistogramRequest{DatasetID: dsID, Epsilon: 0.1}
					}
					w := do(t, live, "POST", "/v1/sessions/"+sessID+"/releases/"+kind, body)
					if w.Code != http.StatusOK {
						t.Fatalf("op %d %s release: %d %s", op, kind, w.Code, w.Body.String())
					}
				case 6, 7: // epoch close
					w := do(t, live, "POST", "/v1/streams/"+stID+"/epochs", nil)
					if w.Code != http.StatusOK {
						t.Fatalf("op %d epoch: %d %s", op, w.Code, w.Body.String())
					}
				case 8: // delete + recreate nothing: checkpoint instead
					if _, err := live.router.Checkpoint(); err != nil {
						t.Fatalf("op %d checkpoint: %v", op, err)
					}
				case 9: // direct library-path epoch close via admin checkpoint + release
					if _, err := live.router.Checkpoint(); err != nil {
						t.Fatalf("op %d checkpoint: %v", op, err)
					}
					w := do(t, live, "POST", "/v1/sessions/"+sessID+"/releases/histogram",
						service.HistogramRequest{DatasetID: dsID, Epsilon: 0.05})
					if w.Code != http.StatusOK {
						t.Fatalf("op %d release: %d %s", op, w.Code, w.Body.String())
					}
				}
			}
			// Recover the directory while the live server still holds
			// it (read-only replay) and compare bit-for-bit.
			rec, err := openServer(service.Config{Durability: service.DurabilityConfig{Dir: dir, Fsync: "never"}})
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer abandon(rec)

			// Datasets: identical tuples and cursors.
			lp, lst := live.router.Core(0).DatasetTable(dsID).Snapshot()
			rp, rst := rec.router.Core(0).DatasetTable(dsID).Snapshot()
			if !reflect.DeepEqual(lp, rp) {
				t.Fatalf("recovered points diverge (%d vs %d tuples)", len(rp), len(lp))
			}
			if lst.LastSeq != rst.LastSeq || lst.Applied != rst.Applied {
				t.Fatalf("recovered table state %+v, live %+v", rst, lst)
			}
			// Sessions: identical ledgers and ordinals.
			ls := live.router.Core(0).SessionHandle(sessID).ExportState()
			rs := rec.router.Core(0).SessionHandle(sessID).ExportState()
			if !reflect.DeepEqual(ls, rs) {
				t.Fatalf("recovered session state diverges:\nlive %+v\nrec  %+v", ls, rs)
			}
			// Streams: identical cursors, buffers, ledgers, ordinals.
			lst2, lsess2 := live.router.Core(0).StreamHandles(stID)
			rst2, rsess2 := rec.router.Core(0).StreamHandles(stID)
			lss := lst2.ExportState()
			rss := rst2.ExportState()
			if !reflect.DeepEqual(lss, rss) {
				t.Fatalf("recovered stream state diverges:\nlive %+v\nrec  %+v", lss, rss)
			}
			lsess := lsess2.ExportState()
			rsess := rsess2.ExportState()
			if !reflect.DeepEqual(lsess, rsess) {
				t.Fatalf("recovered stream session diverges")
			}
			abandon(live)
		})
	}
}

// TestRecoveryRoundTripRegistries pins registry-level recovery: creates,
// deletes and counters survive, and ids minted after recovery never
// collide with pre-crash ones.
func TestRecoveryRoundTripRegistries(t *testing.T) {
	dir := t.TempDir()
	s, err := openServer(service.Config{Durability: service.DurabilityConfig{Dir: dir, Fsync: "never"}})
	if err != nil {
		t.Fatal(err)
	}
	p1 := mustCreatePolicy(t, s, service.CreatePolicyRequest{
		Domain: []service.AttrSpec{{Name: "v", Size: 8}}, Graph: service.GraphSpec{Kind: "full"},
	})
	p2 := mustCreatePolicy(t, s, service.CreatePolicyRequest{
		Domain: []service.AttrSpec{{Name: "x", Size: 4}, {Name: "y", Size: 4}},
		Graph:  service.GraphSpec{Kind: "partition", Blocks: 4},
	})
	d1 := mustCreateDataset(t, s, service.CreateDatasetRequest{PolicyID: p1, Rows: lineRows(10, 8)})
	sess := mustCreateSession(t, s, service.CreateSessionRequest{PolicyID: p2, Budget: 5})
	if w := do(t, s, "DELETE", "/v1/sessions/"+sess, nil); w.Code != http.StatusNoContent {
		t.Fatalf("delete session: %d", w.Code)
	}
	if w := do(t, s, "DELETE", "/v1/policies/"+p2, nil); w.Code != http.StatusNoContent {
		t.Fatalf("delete policy: %d", w.Code)
	}
	abandon(s)

	r, err := openServer(service.Config{Durability: service.DurabilityConfig{Dir: dir, Fsync: "never"}})
	if err != nil {
		t.Fatal(err)
	}
	defer abandon(r)
	if !r.router.Core(0).HasPolicy(p1) {
		t.Fatalf("policy %s lost", p1)
	}
	if r.router.Core(0).HasPolicy(p2) {
		t.Fatalf("deleted policy %s resurrected", p2)
	}
	if r.router.Core(0).HasSession(sess) {
		t.Fatalf("deleted session %s resurrected", sess)
	}
	if !r.router.Core(0).HasDataset(d1) {
		t.Fatalf("dataset %s lost", d1)
	}
	// Fresh ids continue past the recovered counters.
	p3 := mustCreatePolicy(t, r, service.CreatePolicyRequest{
		Domain: []service.AttrSpec{{Name: "v", Size: 8}}, Graph: service.GraphSpec{Kind: "full"},
	})
	if p3 == p1 || p3 == p2 {
		t.Fatalf("recovered server reused id %s", p3)
	}
}

// BenchmarkRecovery measures cold-boot recovery: Open on a directory
// holding a snapshot plus a WAL tail. The tailEvents cases replay ingest
// batches and epoch closes; the releases case replays ad-hoc release
// records in loadbench's mix (the numbers in BENCH_wal.json come from
// longer runs of this benchmark).
func BenchmarkRecovery(b *testing.B) {
	for _, tail := range []int{0, 20000} {
		benchRecover(b, fmt.Sprintf("tailEvents=%d", tail), func(b *testing.B, s *Server, post func(path string, body, out any)) {
			var pol service.PolicyResponse
			post("/v1/policies", service.CreatePolicyRequest{
				Domain: []service.AttrSpec{{Name: "v", Size: 64}}, Graph: service.GraphSpec{Kind: "full"},
			}, &pol)
			var ds service.DatasetResponse
			post("/v1/datasets", service.CreateDatasetRequest{PolicyID: pol.ID, Rows: lineRows(50000, 64)}, &ds)
			var st service.StreamResponse
			post("/v1/streams", service.CreateStreamRequest{
				PolicyID: pol.ID, DatasetID: ds.ID, Budget: 10000,
				Epoch: service.EpochSpec{Epsilon: 0.1},
			}, &st)
			// Snapshot covers the upload; the tail is ingest + closes.
			if _, err := s.router.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			for done := 0; done < tail; {
				n := min(500, tail-done)
				evs := make([]service.EventWire, n)
				for i := range evs {
					evs[i] = service.EventWire{Op: "append", Row: []int{(done + i) % 64}}
				}
				post("/v1/datasets/"+ds.ID+"/events", service.EventsRequest{Events: evs}, &service.EventsResponse{})
				done += n
				if done%5000 == 0 {
					post("/v1/streams/"+st.ID+"/epochs", nil, &service.EpochReleaseWire{})
				}
			}
		})
	}
	benchRecover(b, "releases=10000", func(b *testing.B, s *Server, post func(path string, body, out any)) {
		// loadbench's policy: S^{d,θ} under L1, θ = 16, over 1024 values.
		var pol service.PolicyResponse
		post("/v1/policies", service.CreatePolicyRequest{
			Domain: []service.AttrSpec{{Name: "v", Size: 1024}}, Graph: service.GraphSpec{Kind: "l1", Theta: 16},
		}, &pol)
		var ds service.DatasetResponse
		post("/v1/datasets", service.CreateDatasetRequest{PolicyID: pol.ID, Rows: lineRows(1000, 1024)}, &ds)
		sessions := make([]string, 64)
		for i := range sessions {
			var sess service.SessionResponse
			post("/v1/sessions", service.CreateSessionRequest{PolicyID: pol.ID, Budget: 1e6}, &sess)
			sessions[i] = sess.ID
		}
		// Snapshot covers the creates; the tail is the releases, in
		// loadbench's 5:3:1 mix of range, histogram and cumulative.
		if _, err := s.router.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 10000; i++ {
			path := "/v1/sessions/" + sessions[i%len(sessions)] + "/releases/"
			switch i % 9 {
			case 0, 1, 2, 3, 4:
				lo := i % 512
				post(path+"range", service.RangeRequest{
					DatasetID: ds.ID, Epsilon: 0.01, Queries: []service.RangeQuery{{Lo: lo, Hi: lo + 200}},
				}, nil)
			case 5, 6, 7:
				post(path+"histogram", service.HistogramRequest{DatasetID: ds.ID, Epsilon: 0.01}, nil)
			default:
				post(path+"cumulative", service.CumulativeRequest{DatasetID: ds.ID, Epsilon: 0.01}, nil)
			}
		}
	})
}

// benchRecover runs the named sub-benchmark: it fills a durable server's
// directory with fill, which sends requests through post (a nil out skips
// decoding the response), abandons the server as a crash would, and times
// Open on what is left. The directory belongs to the parent benchmark and
// is filled on the first round only, so setup is paid once per run rather
// than once per b.N round.
func benchRecover(parent *testing.B, name string, fill func(b *testing.B, s *Server, post func(path string, body, out any))) {
	dir := ""
	parent.Run(name, func(b *testing.B) {
		if dir == "" {
			dir = parent.TempDir()
			s, err := openServer(service.Config{Durability: service.DurabilityConfig{Dir: dir, Fsync: "never"}})
			if err != nil {
				b.Fatal(err)
			}
			fill(b, s, func(path string, body, out any) {
				buf, err := json.Marshal(body)
				if err != nil {
					b.Fatal(err)
				}
				req := httptest.NewRequest("POST", path, bytes.NewReader(buf))
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code >= 300 {
					b.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body.String())
				}
				if out == nil {
					return
				}
				if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
					b.Fatal(err)
				}
			})
			abandon(s)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := openServer(service.Config{Durability: service.DurabilityConfig{Dir: dir, Fsync: "never"}})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			abandon(r)
			b.StartTimer()
		}
	})
}

// TestCheckpointEndpointAndAutoSnapshot covers the two snapshot triggers
// beyond graceful shutdown: POST /v1/admin/checkpoint and the
// SnapshotEvery record-count loop.
func TestCheckpointEndpointAndAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := openServer(service.Config{Durability: service.DurabilityConfig{Dir: dir, Fsync: "never", SnapshotEvery: 5}})
	if err != nil {
		t.Fatal(err)
	}
	defer abandon(s)
	polID := mustCreatePolicy(t, s, service.CreatePolicyRequest{
		Domain: []service.AttrSpec{{Name: "v", Size: 8}}, Graph: service.GraphSpec{Kind: "full"},
	})
	dsID := mustCreateDataset(t, s, service.CreateDatasetRequest{PolicyID: polID, Rows: lineRows(5, 8)})

	w := do(t, s, "POST", "/v1/admin/checkpoint", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", w.Code, w.Body.String())
	}
	stats := decode[service.CheckpointStats](t, w)
	if stats.LSN == 0 || stats.Bytes == 0 {
		t.Fatalf("checkpoint stats %+v", stats)
	}
	if _, err := os.Stat(stats.Path); err != nil {
		t.Fatalf("snapshot file: %v", err)
	}

	// Push past SnapshotEvery and wait for the auto loop to advance the
	// snapshot boundary.
	for i := 0; i < 8; i++ {
		appendRows(t, s, dsID, [][]int{{i % 8}})
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if lsn, _, err := walLatestSnapshotLSN(dir); err == nil && lsn > stats.LSN {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("auto checkpoint never advanced the snapshot boundary")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A non-durable server refuses the endpoint.
	mem := newServer(t, service.Config{})
	w = do(t, mem, "POST", "/v1/admin/checkpoint", nil)
	wantError(t, w, http.StatusBadRequest, service.CodeBadRequest)
}

// walLatestSnapshotLSN reports the newest snapshot boundary of the one
// shard a test front keeps under dir.
func walLatestSnapshotLSN(dir string) (uint64, []byte, error) {
	return wal.LatestSnapshot(filepath.Join(dir, "shard-0"))
}

// TestMultiGenerationRestarts is the server-level regression test for the
// post-checkpoint LSN-continuity bug: charges made *after* a clean
// restart (whose boot found only an empty, fully-checkpointed WAL) must
// survive the restart after that.
func TestMultiGenerationRestarts(t *testing.T) {
	dir := t.TempDir()
	open := func() *Server {
		s, err := openServer(service.Config{Durability: service.DurabilityConfig{Dir: dir, Fsync: "never"}})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Generation 1: create everything, charge one epoch, clean shutdown.
	s1 := open()
	polID := mustCreatePolicy(t, s1, service.CreatePolicyRequest{
		Domain: []service.AttrSpec{{Name: "v", Size: 8}}, Graph: service.GraphSpec{Kind: "full"},
	})
	dsID := mustCreateDataset(t, s1, service.CreateDatasetRequest{PolicyID: polID, Rows: lineRows(5, 8)})
	w := do(t, s1, "POST", "/v1/streams", service.CreateStreamRequest{
		PolicyID: polID, DatasetID: dsID, Budget: 1.0,
		Epoch: service.EpochSpec{Epsilon: 0.25},
	})
	stID := decode[service.StreamResponse](t, w).ID
	if w := do(t, s1, "POST", "/v1/streams/"+stID+"/epochs", nil); w.Code != http.StatusOK {
		t.Fatalf("gen1 epoch: %d %s", w.Code, w.Body.String())
	}
	s1.Close() // final checkpoint retires the whole WAL

	// Generation 2: boot from the snapshot (empty WAL), charge two more
	// epochs, crash without a checkpoint.
	s2 := open()
	for i := 0; i < 2; i++ {
		if w := do(t, s2, "POST", "/v1/streams/"+stID+"/epochs", nil); w.Code != http.StatusOK {
			t.Fatalf("gen2 epoch %d: %d %s", i, w.Code, w.Body.String())
		}
	}
	_, s2sess := s2.router.Core(0).StreamHandles(stID)
	if got := s2sess.Accountant().Spent(); got != 0.75 {
		t.Fatalf("gen2 spent = %v, want 0.75", got)
	}
	abandon(s2)

	// Generation 3: the gen2 charges were only in the WAL tail — they
	// must all be there.
	s3 := open()
	defer abandon(s3)
	s3st, s3sess := s3.router.Core(0).StreamHandles(stID)
	if got := s3sess.Accountant().Spent(); got != 0.75 {
		t.Fatalf("gen3 recovered spent = %v, want 0.75 (gen2 charges lost)", got)
	}
	if got := s3st.ExportState().Epoch; got != 3 {
		t.Fatalf("gen3 recovered epoch = %d, want 3", got)
	}
}
