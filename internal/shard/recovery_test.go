package shard_test

// Sharded crash-recovery: the single-core durability contract (see
// internal/server's recovery tests) must hold per shard, plus the
// router's own invariants — the routing tables and id counters are
// rebuilt purely from the shards' recovered registries, and a policy
// broadcast torn by the crash is repaired to the union.
//
// TestShardedCrashRecovery re-executes this test binary as a child
// process (TestMain) running a durable 4-shard HTTP server, drives it
// over HTTP, SIGKILLs it mid-ingest, and recovers the directory
// in-process. The CI sharded-recovery job runs it with -race. The child
// starts the HTTP front, which imports this package, so these tests live
// in the external test package.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"blowfish/internal/server"
	"blowfish/internal/service"
	"blowfish/internal/shard"
)

const crashChildEnv = "BLOWFISH_SHARD_CRASH_CHILD_DIR"

const crashShards = 4

var crashPolicy = service.CreatePolicyRequest{
	Domain: []service.AttrSpec{{Name: "v", Size: 16}},
	Graph:  service.GraphSpec{Kind: "line"},
}

// TestMain turns the test binary into a durable sharded server when
// re-executed as the crash child: it serves until killed, never
// returning.
func TestMain(m *testing.M) {
	if dir := os.Getenv(crashChildEnv); dir != "" {
		runCrashChild(dir)
		return // unreachable: runCrashChild blocks until killed
	}
	os.Exit(m.Run())
}

// runCrashChild serves a 4-shard durable server on a random port, writing
// the address to <dir>/../addr for the parent, with the shard WALs under
// <dir>.
func runCrashChild(dir string) {
	r, err := shard.Open(service.Config{
		Durability: service.DurabilityConfig{Dir: dir, Fsync: "always"},
	}, crashShards)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shard crash child: %v\n", err)
		os.Exit(1)
	}
	srv := server.New(r)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "shard crash child: %v\n", err)
		os.Exit(1)
	}
	addrFile := filepath.Join(filepath.Dir(dir), "addr")
	if err := os.WriteFile(addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "shard crash child: %v\n", err)
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

// TestShardedCrashRecovery is the sharded kill -9 harness: resources are
// spread over every shard, acked work must survive on all of them, and
// the rebuilt router must route every recovered id to the shard that
// holds it.
func TestShardedCrashRecovery(t *testing.T) {
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
		t.Fatal("shard crash child never published an address")
	}

	// --- drive the child over HTTP -----------------------------------
	var pol service.PolicyResponse
	httpJSON(t, "POST", base+"/v1/policies", crashPolicy, &pol)
	if pol.ID == "" {
		t.Fatal("policy create returned no id")
	}

	// Enough datasets that every shard owns at least one (ds-1..ds-12
	// over 4 rendezvous shards; verified below, not assumed).
	const numDatasets = 12
	var datasets []service.DatasetResponse
	for i := 0; i < numDatasets; i++ {
		var ds service.DatasetResponse
		httpJSON(t, "POST", base+"/v1/datasets", service.CreateDatasetRequest{PolicyID: pol.ID}, &ds)
		datasets = append(datasets, ds)
	}
	owned := make(map[int]bool)
	for _, ds := range datasets {
		owned[shard.ShardFor(ds.ID, crashShards)] = true
	}
	if len(owned) != crashShards {
		t.Fatalf("datasets cover %d of %d shards; grow numDatasets", len(owned), crashShards)
	}

	// One stream per dataset; the first takes the mid-ingest kill, the
	// second is quiesced pre-kill and carries the bit-for-bit release
	// assertion.
	var streams []service.StreamResponse
	for _, ds := range datasets[:2] {
		var st service.StreamResponse
		httpJSON(t, "POST", base+"/v1/streams", service.CreateStreamRequest{
			PolicyID: pol.ID, DatasetID: ds.ID, Budget: 3.0,
			Epoch: service.EpochSpec{Epsilon: 0.5},
		}, &st)
		streams = append(streams, st)
	}

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
	// Acked rows on every dataset: all must survive on whichever shard
	// owns them.
	acked := make(map[string]service.EventsResponse)
	rows := make(map[string]int)
	for i, ds := range datasets {
		vals := []int{i % 16, (i + 3) % 16, (i + 5) % 16}
		acked[ds.ID] = ingest(ds.ID, vals)
		rows[ds.ID] = len(vals)
	}

	closeEpoch := func(stID string) service.EpochReleaseWire {
		var rel service.EpochReleaseWire
		code := httpJSON(t, "POST", base+"/v1/streams/"+stID+"/epochs", nil, &rel)
		if code != http.StatusOK {
			t.Fatalf("epoch close on %s: status %d", stID, code)
		}
		return rel
	}
	acked0 := closeEpoch(streams[0].ID)
	acked1 := closeEpoch(streams[1].ID)

	// --- kill -9 mid-ingest ------------------------------------------
	// Hammer unacked batches across every dataset (so every shard has a
	// WAL tail in flight) and kill while they are mid-request.
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
			evs := make([]service.EventWire, 10)
			for i := range evs {
				evs[i] = service.EventWire{Op: "append", Row: []int{(n + i) % 16}}
			}
			ds := datasets[n%len(datasets)]
			n++
			b, _ := json.Marshal(service.EventsRequest{Events: evs})
			resp, err := cl.Post(base+"/v1/datasets/"+ds.ID+"/events", "application/json", bytes.NewReader(b))
			if err != nil {
				return // child died mid-request: expected
			}
			resp.Body.Close()
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
	rec, err := shard.Open(service.Config{
		Durability: service.DurabilityConfig{Dir: dir, Fsync: "always"},
	}, crashShards)
	if err != nil {
		t.Fatalf("sharded recovery: %v", err)
	}
	defer rec.Abandon()

	// Routing tables rebuilt: every dataset routes to the shard that
	// holds it, which is still ShardFor(id, n).
	for _, ds := range datasets {
		want := shard.ShardFor(ds.ID, crashShards)
		if got := rec.ShardOf(ds.ID); got != want {
			t.Fatalf("dataset %s recovered onto shard %d, want %d", ds.ID, got, want)
		}
		if !rec.Core(want).HasDataset(ds.ID) {
			t.Fatalf("dataset %s missing from its shard %d after recovery", ds.ID, want)
		}
	}

	// The policy broadcast survived on every shard.
	for k := 0; k < crashShards; k++ {
		if !rec.Core(k).HasPolicy(pol.ID) {
			t.Fatalf("policy %s missing on shard %d after recovery", pol.ID, k)
		}
	}

	// No acked ingest event is lost, on any shard.
	for _, ds := range datasets {
		k := rec.ShardOf(ds.ID)
		core := rec.Core(k)
		if got := core.DatasetTable(ds.ID).LastSeq(); got < acked[ds.ID].LastSeq {
			t.Fatalf("dataset %s (shard %d) recovered seq %d < acked %d", ds.ID, k, got, acked[ds.ID].LastSeq)
		}
		if got := core.DatasetHandle(ds.ID).Len(); got < rows[ds.ID] {
			t.Fatalf("dataset %s (shard %d) recovered %d rows, want >= %d acked", ds.ID, k, got, rows[ds.ID])
		}
	}

	// Budget spend is monotone and the acked releases are in the
	// recovered buffers bit-for-bit.
	for i, st := range streams {
		k := rec.ShardOf(st.ID)
		if k < 0 {
			t.Fatalf("stream %s unrouted after recovery", st.ID)
		}
		stream, sess := rec.Core(k).StreamHandles(st.ID)
		if stream == nil {
			t.Fatalf("stream %s not recovered on shard %d", st.ID, k)
		}
		if got := sess.Accountant().Spent(); got != 0.5 {
			t.Fatalf("stream %s spent = %v after recovery, want 0.5 (one acked close)", st.ID, got)
		}
		want := []service.EpochReleaseWire{acked0, acked1}[i]
		got := stream.ExportState().Releases
		if len(got) != 1 {
			t.Fatalf("stream %s recovered %d releases, want 1", st.ID, len(got))
		}
		if got[0].Seq != want.Seq || got[0].Epoch != want.Epoch || !reflect.DeepEqual(got[0].Histogram, want.Histogram) {
			t.Fatalf("stream %s release diverges:\nrecovered %+v\nacked     %+v", st.ID, got[0], want)
		}
	}

	// The rebuilt id counters mint fresh ids past everything recovered.
	ds, err := rec.CreateDataset(service.CreateDatasetRequest{PolicyID: pol.ID})
	if err != nil {
		t.Fatalf("post-recovery create: %v", err)
	}
	for _, old := range datasets {
		if ds.ID == old.ID {
			t.Fatalf("post-recovery dataset reused id %s", ds.ID)
		}
	}
}

// TestOpenRejectsShrunkLayout: reopening a sharded directory with fewer
// shards than it holds must refuse rather than silently strand the
// datasets on the orphaned shards.
func TestOpenRejectsShrunkLayout(t *testing.T) {
	dir := t.TempDir()
	cfg := service.Config{Durability: service.DurabilityConfig{Dir: dir, Fsync: "always"}}
	r, err := shard.Open(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if _, err := shard.Open(cfg, 2); err == nil {
		t.Fatal("Open with 2 shards over a 3-shard directory succeeded; want a layout refusal")
	}
	// The original count still works, as does growing.
	for _, n := range []int{3, 5} {
		r, err := shard.Open(cfg, n)
		if err != nil {
			t.Fatalf("reopen with %d shards: %v", n, err)
		}
		r.Close()
	}
}

// TestOpenRejectsUnshardedLayout: Open reads only a directory that its
// own format wrote, as named by the FORMAT file at the root. It refuses a
// directory without that file, or with another version in it, before it
// creates or changes anything, and the error names both versions. The
// fixtures are the unsharded layout of the releases before the router ran
// at every shard count (a root-level WAL, or a root-level snapshot alone),
// the sharded layout that came before FORMAT (shard-0/ with a WAL), and a
// FORMAT of another version. A new directory, which may hold a torn
// FORMAT write and what a new volume or a provisioned directory holds
// (lost+found, .gitkeep), is stamped with the version and the seed, and
// opens and reopens.
func TestOpenRejectsUnshardedLayout(t *testing.T) {
	cfgAt := func(dir string) service.Config {
		return service.Config{Durability: service.DurabilityConfig{Dir: dir, Fsync: "always"}}
	}
	// core leaves one core's state in dir: a crash keeps its WAL, a
	// graceful close checkpoints.
	core := func(t *testing.T, dir string, graceful bool) {
		t.Helper()
		c, err := service.Open(cfgAt(dir))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.ApplyPolicy("pol-1", crashPolicy); err != nil {
			t.Fatal(err)
		}
		if graceful {
			c.Close()
		} else {
			c.Abandon()
		}
	}

	fresh := filepath.Join(t.TempDir(), "new")
	if err := os.MkdirAll(fresh, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(fresh, "lost+found"), 0o700); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"FORMAT.tmp-torn", ".gitkeep"} {
		if err := os.WriteFile(filepath.Join(fresh, name), []byte("1"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		r, err := shard.Open(cfgAt(fresh), 2)
		if err != nil {
			t.Fatalf("open %d of a new directory: %v", i+1, err)
		}
		r.Close()
	}
	stamp, err := os.ReadFile(filepath.Join(fresh, "FORMAT"))
	if want := service.FormatVersion + "\nseed 0\n"; err != nil || string(stamp) != want {
		t.Fatalf("FORMAT of a new directory = %q, %v; want %q", stamp, err, want)
	}
	want := fmt.Sprintf("reads only format %q", service.FormatVersion)

	for _, tc := range []struct {
		name, found string // found: the version the refusal names
		make        func(t *testing.T, dir string)
	}{
		{"root-level WAL", "none", func(t *testing.T, dir string) { core(t, dir, false) }},
		{"root-level snapshot", "none", func(t *testing.T, dir string) {
			core(t, dir, true)
			logs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
			for _, l := range logs {
				if err := os.Remove(l); err != nil {
					t.Fatal(err)
				}
			}
			if snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.db")); len(snaps) == 0 {
				t.Fatal("graceful close wrote no snapshot at the root")
			}
		}},
		{"shard-0 WAL without FORMAT", "none", func(t *testing.T, dir string) { core(t, filepath.Join(dir, "shard-0"), false) }},
		{"FORMAT of another version", `"999"`, func(t *testing.T, dir string) {
			core(t, filepath.Join(dir, "shard-0"), false)
			if err := os.WriteFile(filepath.Join(dir, "FORMAT"), []byte("999\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.make(t, dir)
			before := tree(t, dir)
			for _, n := range []int{1, 4} {
				_, err := shard.Open(cfgAt(dir), n)
				if err == nil || !strings.Contains(err.Error(), "is format "+tc.found) || !strings.Contains(err.Error(), want) {
					t.Fatalf("Open(%d shards) = %v, want a refusal naming format %s and %s", n, err, tc.found, want)
				}
			}
			if after := tree(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("refused Open changed the directory:\nbefore %v\nafter  %v", before, after)
			}
		})
	}
}

// TestOpenRejectsOtherSeed: every recovered noise key derives from the
// base seed, so a data directory keeps the seed it was written with. A
// durable stream closes an epoch and the server dies; reopening with
// another seed is refused, naming both, and leaves the directory as
// found, since replaying the close under another key would serve a
// second, independent release of an epoch charged once. Reopening with
// the original seed serves the very release the close returned.
func TestOpenRejectsOtherSeed(t *testing.T) {
	cfg := service.Config{Seed: 42, Durability: service.DurabilityConfig{Dir: t.TempDir(), Fsync: "always"}}
	r, err := shard.Open(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := r.CreatePolicy(crashPolicy)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := r.CreateDataset(service.CreateDatasetRequest{PolicyID: pol.ID, Rows: [][]int{{1}, {2}, {9}}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.CreateStream(service.CreateStreamRequest{PolicyID: pol.ID, DatasetID: ds.ID, Budget: 1, Epoch: service.EpochSpec{Epsilon: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	closed, err := r.CloseEpoch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	r.Abandon()

	before := tree(t, cfg.Durability.Dir)
	for _, seed := range []int64{0, 1, 43} {
		other := cfg
		other.Seed = seed
		_, err := shard.Open(other, 2)
		if want := fmt.Sprintf("written with seed 42, not %d", seed); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Open with seed %d = %v, want a refusal naming %q", seed, err, want)
		}
	}
	if after := tree(t, cfg.Durability.Dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused Open changed the directory:\nbefore %v\nafter  %v", before, after)
	}

	rec, err := shard.Open(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	polled, err := rec.StreamReleases(context.Background(), st.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal([]service.EpochReleaseWire{closed})
	if got, _ := json.Marshal(polled.Releases); string(got) != string(want) {
		t.Fatalf("release after reopening with the same seed:\ngot  %s\nwant %s", got, want)
	}
}

// tree maps every path under dir to its file's contents ("/" for a
// directory).
func tree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			out[path] = "/"
			return nil
		}
		b, err := os.ReadFile(path)
		out[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
