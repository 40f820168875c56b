package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// The policy every workload serves: S^{d,θ} under L1 with θ=16 over one
// ordered attribute of 1024 values, which supports all three release kinds.
const (
	domainSize  = 1024
	theta       = 16
	releaseEps  = 0.01
	budget      = 1e6
	batchEvents = 256
)

// workload is one traffic mix against one server layout.
type workload struct {
	name     string
	shards   int  // blowfish-serve -shards
	durable  bool // -data-dir with fsync=always, and a kill -9 restart after the window
	datasets int
	rows     int // per dataset
	sessions int // release sessions, spread round-robin over the datasets
	stream   bool
	rate     float64 // scheduled requests per second
}

var workloads = []workload{
	{name: "release-inmem", shards: 1, datasets: 1, rows: 200_000, sessions: 1024, rate: 1500},
	{name: "release-durable", shards: 1, durable: true, datasets: 1, rows: 200_000, sessions: 1024, rate: 1500},
	{name: "release-sharded", shards: 4, datasets: 8, rows: 25_000, sessions: 1024, rate: 1500},
	{name: "ingest-stream", shards: 1, datasets: 1, rows: 200_000, stream: true, rate: 450},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// serverArgs are the blowfish-serve flags for the workload; dataDir is
// empty for an in-memory server. Durable runs keep blowfish-serve's fsync
// and snapshot defaults, spelled out.
func (w workload) serverArgs(seed int64, dataDir string) []string {
	args := []string{"-seed", strconv.FormatInt(seed, 10), "-session-ttl", "0", "-log-level", "warn",
		"-shards", strconv.Itoa(w.shards)}
	if w.durable {
		args = append(args, "-data-dir", dataDir, "-fsync", "always", "-snapshot-every", "50000")
	}
	return args
}

// inputs are the request bodies a run uploads during set-up, generated
// from the seed before any timing starts.
type inputs struct {
	policy   []byte
	datasets [][]byte
}

func makeInputs(w workload, seed int64) (*inputs, error) {
	in := &inputs{}
	var err error
	in.policy, err = json.Marshal(map[string]any{
		"domain": []map[string]any{{"name": "v", "size": domainSize}},
		"graph":  map[string]any{"kind": "l1", "theta": theta},
	})
	if err != nil {
		return nil, err
	}
	g := splitmix{state: uint64(seed)}
	for d := 0; d < w.datasets; d++ {
		// {"policy_id":"pol-1","rows":[[v],...]}; the policy id is patched in
		// at set-up, so only the rows are pre-rendered here.
		b := make([]byte, 0, 8*w.rows)
		b = append(b, `"rows":[`...)
		for i := 0; i < w.rows; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			b = strconv.AppendInt(b, int64(g.intn(domainSize)), 10)
			b = append(b, ']')
		}
		in.datasets = append(in.datasets, append(b, ']', '}'))
	}
	return in, nil
}

// fixtures are the ids set-up created on the server.
type fixtures struct {
	policy   string
	datasets []string
	rows     int // rows per dataset at set-up
	sessions []string
	sessDS   []int // dataset index of each session
	stream   string
	// warm counts the warm-up releases set-up drew per session.
	warm []int
}

// schedule draws one open-loop phase of length d: Poisson arrivals at the
// workload's rate, each assigned an operation by the workload's mix.
func schedule(w workload, fx *fixtures, g *splitmix, d time.Duration) []request {
	var reqs []request
	for t := g.gap(w.rate); t < d; t += g.gap(w.rate) {
		var r request
		if w.stream {
			r = streamRequest(fx, g)
		} else {
			r = releaseRequest(fx, g)
		}
		r.due = t
		reqs = append(reqs, r)
	}
	return reqs
}

// releaseRequest draws one request of the release mix: 50% range (one
// random query), 30% histogram, 10% cumulative, 10% budget read, on a
// uniformly chosen session.
func releaseRequest(fx *fixtures, g *splitmix) request {
	s := g.intn(len(fx.sessions))
	r := request{session: s, method: http.MethodPost, ctype: "application/json"}
	ds := fx.datasets[fx.sessDS[s]]
	base := "/v1/sessions/" + fx.sessions[s]
	switch p := g.intn(10); {
	case p < 5:
		lo := g.intn(domainSize)
		hi := lo + g.intn(domainSize-lo)
		r.op, r.path = opRange, base+"/releases/range"
		r.body = fmt.Appendf(nil, `{"dataset_id":%q,"epsilon":%g,"queries":[{"lo":%d,"hi":%d}]}`, ds, releaseEps, lo, hi)
	case p < 8:
		r.op, r.path = opHistogram, base+"/releases/histogram"
		r.body = fmt.Appendf(nil, `{"dataset_id":%q,"epsilon":%g}`, ds, releaseEps)
	case p < 9:
		r.op, r.path = opCumulative, base+"/releases/cumulative"
		r.body = fmt.Appendf(nil, `{"dataset_id":%q,"epsilon":%g}`, ds, releaseEps)
	default:
		r.op, r.method, r.path, r.ctype = opBudgetRead, http.MethodGet, base, ""
	}
	return r
}

// streamRequest draws one request of the ingest mix: binary batches of 256
// events (80% upserts of existing ids, 20% appends) at 8/9 of the rate and
// epoch closes at 1/9, so 400 batches/s beside 50 closes/s at 450/s.
func streamRequest(fx *fixtures, g *splitmix) request {
	if g.intn(9) == 0 {
		return request{op: opEpoch, session: -1, method: http.MethodPost, path: "/v1/streams/" + fx.stream + "/epochs"}
	}
	r := request{op: opIngest, session: -1, method: http.MethodPost, ctype: batchContentType,
		path: "/v1/datasets/" + fx.datasets[0] + "/events", events: batchEvents}
	ops := make([]byte, batchEvents)
	var ids, vals []uint32
	for i := range ops {
		if g.intn(5) == 0 {
			ops[i] = frameAppend
			r.appends++
		} else {
			ops[i] = frameUpsert
			ids = append(ids, uint32(g.intn(fx.rows))) // ids below the set-up row count always exist
		}
		vals = append(vals, uint32(g.intn(domainSize)))
	}
	r.body = encodeFrame(ops, ids, vals)
	return r
}

// The binary batch frame of the events endpoint (Content-Type
// application/x-blowfish-batch), encoded here as any external producer
// would: [u32 payload length][u32 crc32c(payload)] then the payload
// [u8 version=1][u8 attrs=1][u16 0][u32 count][ops][ids of upserts][values].
const (
	batchContentType      = "application/x-blowfish-batch"
	frameAppend      byte = 0
	frameUpsert      byte = 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func encodeFrame(ops []byte, ids, vals []uint32) []byte {
	payload := make([]byte, 0, 8+len(ops)+4*len(ids)+4*len(vals))
	payload = append(payload, 1, 1, 0, 0)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(ops)))
	payload = append(payload, ops...)
	for _, v := range ids {
		payload = binary.LittleEndian.AppendUint32(payload, v)
	}
	for _, v := range vals {
		payload = binary.LittleEndian.AppendUint32(payload, v)
	}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	return append(frame, payload...)
}

// Response bodies, decoded only as far as the checks need.
type (
	sessionResp struct {
		ID       string     `json:"id"`
		Spent    float64    `json:"spent"`
		Releases []struct{} `json:"releases"` // only the ledger's length is read
	}
	eventsResp struct {
		Accepted int    `json:"accepted"`
		Rejected uint64 `json:"rejected"`
	}
	epochRelease struct {
		Epoch              int       `json:"epoch"`
		Events             uint64    `json:"events"`
		Rows               int       `json:"rows"`
		Histogram          []float64 `json:"histogram"`
		CumulativeRaw      []float64 `json:"cumulative_raw"`
		CumulativeInferred []float64 `json:"cumulative_inferred"`
	}
	releasesResp struct {
		Releases  []epochRelease `json:"releases"`
		NextSince uint64         `json:"next_since"`
	}
	datasetResp struct {
		ID   string `json:"id"`
		Rows int    `json:"rows"`
	}
)

// arraySpec names one numeric array of a release response and its shape:
// want values, and when bound >= 0 non-decreasing within [0, bound] (a
// cumulative inference over a dataset of bound rows).
type arraySpec struct {
	key   string
	want  int
	bound float64
}

func releaseArrays(op opClass, rows int) []arraySpec {
	switch op {
	case opRange:
		return []arraySpec{{"answers", 1, -1}}
	case opHistogram:
		return []arraySpec{{"counts", domainSize, -1}}
	case opCumulative:
		return []arraySpec{{"raw", domainSize, -1}, {"inferred", domainSize, float64(rows)}}
	}
	return nil
}

var floatBufs = sync.Pool{New: func() any { return new([]float64) }}

// checkRelease validates a release or budget-read response. rows is the
// dataset cardinality, the bound on cumulative inferences.
func checkRelease(r *request, body []byte, sessionID string, rows int) error {
	if r.op == opBudgetRead {
		var v sessionResp
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if v.ID != sessionID {
			return fmt.Errorf("budget read: got session %q", v.ID)
		}
		return nil
	}
	buf := floatBufs.Get().(*[]float64)
	defer floatBufs.Put(buf)
	for _, a := range releaseArrays(r.op, rows) {
		xs, err := numbers((*buf)[:0], body, a.key)
		*buf = xs
		if err != nil {
			return err
		}
		if err := checkArray(a, xs); err != nil {
			return err
		}
	}
	return nil
}

// checkEpoch validates one published epoch release.
func checkEpoch(rel *epochRelease) error {
	for _, a := range []struct {
		arraySpec
		xs []float64
	}{
		{arraySpec{"histogram", domainSize, -1}, rel.Histogram},
		{arraySpec{"cumulative_raw", domainSize, -1}, rel.CumulativeRaw},
		{arraySpec{"cumulative_inferred", domainSize, float64(rel.Rows)}, rel.CumulativeInferred},
	} {
		if err := checkArray(a.arraySpec, a.xs); err != nil {
			return fmt.Errorf("epoch %d: %w", rel.Epoch, err)
		}
	}
	return nil
}

func checkArray(a arraySpec, xs []float64) error {
	if len(xs) != a.want {
		return fmt.Errorf("%s: %d values, want %d", a.key, len(xs), a.want)
	}
	prev := 0.0
	for i, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s[%d] = %g", a.key, i, v)
		}
		if a.bound >= 0 && (v < prev || v > a.bound) {
			return fmt.Errorf("%s[%d] = %g not monotone within [0, %g]", a.key, i, v, a.bound)
		}
		prev = v
	}
	return nil
}

// numbers appends to dst the values of the flat JSON array of numbers
// under key in body. It reads the arrays release responses carry without a
// reflective decode, which keeps checking every response cheap beside the
// request it checks.
func numbers(dst []float64, body []byte, key string) ([]float64, error) {
	i := bytes.Index(body, []byte(`"`+key+`":[`))
	if i < 0 {
		return dst, fmt.Errorf("no %q array in %.100s", key, body)
	}
	rest := body[i+len(key)+4:]
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		return dst, fmt.Errorf("unterminated %q array", key)
	}
	for rest = rest[:end]; len(rest) > 0; {
		j := bytes.IndexByte(rest, ',')
		if j < 0 {
			j = len(rest)
		}
		v, err := strconv.ParseFloat(string(rest[:j]), 64)
		if err != nil {
			return dst, fmt.Errorf("%s[%d]: %w", key, len(dst), err)
		}
		dst = append(dst, v)
		rest = rest[min(j+1, len(rest)):]
	}
	return dst, nil
}
