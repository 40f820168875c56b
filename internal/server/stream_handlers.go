package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"blowfish"
	"blowfish/internal/codec"
	"blowfish/internal/service"
)

// handleDatasetEvents appends a batch of events to the dataset's event log.
// Three encodings share the endpoint: a JSON envelope {"events": [...]},
// NDJSON (Content-Type application/x-ndjson), one event object per line —
// the format high-volume producers pipe without building an envelope in
// memory — and the binary columnar batch frame (Content-Type
// application/x-blowfish-batch, internal/codec), which decodes with no
// per-event allocation for producers that saturate the NDJSON front. The
// decode needs the dataset's attribute count, so the front resolves the
// dataset first (a 404 costs no body parse); the service re-resolves it
// under its own locks, then journals and applies the batch before the 202.
func (s *Server) handleDatasetEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ds, err := s.router.GetDataset(id)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	var events []blowfish.StreamEvent
	switch {
	case isBinaryBatch(r):
		dec := codec.GetDecoder()
		// The decoded events alias the decoder's scratch. The service's
		// ingest path copies them into mutations before returning and the
		// response only carries counters, so releasing the decoder at
		// handler exit is safe.
		defer codec.PutDecoder(dec)
		evs, err := dec.DecodeAll(r.Body, len(ds.Domain), service.MaxEvents)
		if err != nil {
			writeError(w, service.CodeBadRequest, err.Error())
			return
		}
		events = evs
	case isNDJSON(r):
		sc := getNDJSONScratch()
		defer putNDJSONScratch(sc)
		if err := sc.decode(r.Body, service.MaxEvents); err != nil {
			writeError(w, service.CodeBadRequest, err.Error())
			return
		}
		events = sc.events
	default:
		var req service.EventsRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		events = make([]blowfish.StreamEvent, len(req.Events))
		for i, ev := range req.Events {
			events[i] = blowfish.StreamEvent{Op: ev.Op, ID: ev.ID, Row: ev.Row}
		}
	}
	resp, err := s.router.IngestEvents(id, events)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, resp)
}

func isNDJSON(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	return strings.HasPrefix(ct, "application/x-ndjson") || strings.HasPrefix(ct, "application/ndjson")
}

func isBinaryBatch(r *http.Request) bool {
	return strings.HasPrefix(r.Header.Get("Content-Type"), codec.ContentType)
}

// ndjsonScratch holds the per-request NDJSON decode state a pooled handler
// reuses: the line scanner's buffer, the wire-event slice (each entry's Row
// backing array survives reuse — service.Row decodes into the reset
// slice) and the converted ingest batch. Its events alias the scratch and
// must not be retained past the request.
type ndjsonScratch struct {
	buf    []byte
	rd     bytes.Reader
	wire   []service.EventWire
	events []blowfish.StreamEvent
}

var ndjsonPool = sync.Pool{New: func() any {
	return &ndjsonScratch{buf: make([]byte, 0, 64<<10)}
}}

func getNDJSONScratch() *ndjsonScratch   { return ndjsonPool.Get().(*ndjsonScratch) }
func putNDJSONScratch(sc *ndjsonScratch) { ndjsonPool.Put(sc) }

// decode parses one event object per non-empty line into the scratch's
// reused buffers, leaving the converted batch in sc.events. A line holds
// exactly one object.
func (sc *ndjsonScratch) decode(body io.Reader, max int) error {
	out := sc.wire[:0]
	s := bufio.NewScanner(body)
	s.Buffer(sc.buf, 1<<20)
	line := 0
	for s.Scan() {
		line++
		b := bytes.TrimSpace(s.Bytes())
		if len(b) == 0 {
			continue
		}
		if len(out) == max {
			sc.wire = out
			return fmt.Errorf("ndjson body exceeds the per-request cap %d", max)
		}
		// Reuse the slot's Row backing across requests; reset the fields a
		// sparse line would otherwise inherit from the previous occupant.
		if len(out) < cap(out) {
			out = out[:len(out)+1]
		} else {
			out = append(out, service.EventWire{})
		}
		ev := &out[len(out)-1]
		ev.Op, ev.ID, ev.Row = "", 0, ev.Row[:0]
		sc.rd.Reset(b)
		if err := service.DecodeOne(&sc.rd, ev); err != nil {
			sc.wire = out
			return fmt.Errorf("ndjson line %d: %v", line, err)
		}
	}
	sc.wire = out
	if err := s.Err(); err != nil {
		return fmt.Errorf("ndjson body: %v", err)
	}
	events := sc.events[:0]
	for _, ev := range out {
		events = append(events, blowfish.StreamEvent{Op: ev.Op, ID: ev.ID, Row: ev.Row})
	}
	sc.events = events
	return nil
}

func (s *Server) handleCreateStream(w http.ResponseWriter, r *http.Request) {
	var req service.CreateStreamRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	resp, err := s.router.CreateStream(req)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleGetStream(w http.ResponseWriter, r *http.Request) {
	resp, err := s.router.GetStream(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleListStreams(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.router.ListStreams())
}

func (s *Server) handleDeleteStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.router.DeleteStream(id); err != nil {
		writeServiceError(w, err)
		return
	}
	s.releases.Delete(id)
	w.WriteHeader(http.StatusNoContent)
}

// handleCloseEpoch closes the stream's current epoch on demand — the
// deterministic trigger (automatic interval-driven closes are configured
// at stream creation).
func (s *Server) handleCloseEpoch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	resp, err := s.router.CloseEpoch(id)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	body, err := s.releaseJSON(id, &resp)
	if err != nil {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	// The bytes json.Encoder would write: the value, then a newline.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	_, _ = io.WriteString(w, "\n")
}

// handleStreamReleases answers a cursor poll over the stream's published
// releases; see service.Core.StreamReleases for the long-poll and
// exhaustion contract. The front owns only the query-parameter parsing.
func (s *Server) handleStreamReleases(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var since uint64
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, service.CodeBadRequest, "invalid since cursor: "+err.Error())
			return
		}
		since = n
	}
	var wait time.Duration
	if v := q.Get("wait_ms"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, service.CodeBadRequest, "invalid wait_ms")
			return
		}
		// Saturate before converting: the service clamps the wait to its
		// MaxLongPollWait, but a product past math.MaxInt64 would wrap to
		// a negative wait that does not wait at all.
		wait = time.Duration(min(int64(n), int64(math.MaxInt64/time.Millisecond))) * time.Millisecond
	}
	id := r.PathValue("id")
	resp, err := s.router.StreamReleases(r.Context(), id, since, wait)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	bodies := make([][]byte, len(resp.Releases))
	for i := range resp.Releases {
		if bodies[i], err = s.releaseJSON(id, &resp.Releases[i]); err != nil {
			writeJSON(w, http.StatusOK, resp)
			return
		}
	}
	// The bytes json.Encoder would write for resp, written piecewise so
	// the release bodies are not copied into an envelope.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, `{"releases":[`)
	for i, b := range bodies {
		if i > 0 {
			_, _ = io.WriteString(w, ",")
		}
		_, _ = w.Write(b)
	}
	_, _ = fmt.Fprintf(w, "],\"next_since\":%d}\n", resp.NextSince)
}

// releaseBody is the JSON of one epoch release, encoded at most once.
type releaseBody struct {
	seq  uint64
	once sync.Once
	body []byte
	err  error
}

// releaseJSON returns the JSON of rel, a release of stream id, as
// json.Marshal would. The front keeps one releaseBody per stream, for the
// newest release it has served: a release with that seq shares its body,
// encoded once by whichever handler gets there first, and a newer release
// replaces it. Both the close reply and the polls go through here, because
// Stream.CloseEpoch wakes the long-pollers before the close handler has
// the release back, so either may arrive first. An older release (a
// catch-up poll) is encoded for its caller alone, so the front holds at
// most one body per live stream; DELETE drops it.
//
// Sharing by (id, seq) is sound because the pair names one immutable
// release for the life of the process: a stream never republishes a seq,
// and an id is never reused — the shard router mints ids from monotone
// counters (it takes back only the id of a refused create, which no
// stream ever held), ApplyStream refuses a live id, and the router
// applies only ids it has just minted.
func (s *Server) releaseJSON(id string, rel *service.EpochReleaseWire) ([]byte, error) {
	for {
		cur, ok := s.releases.Load(id)
		if ok {
			switch e := cur.(*releaseBody); {
			case rel.Seq == e.seq:
				return s.sharedJSON(e, rel)
			case rel.Seq < e.seq:
				return s.encodeRelease(rel)
			}
			fresh := &releaseBody{seq: rel.Seq}
			if s.releases.CompareAndSwap(id, cur, fresh) {
				return s.sharedJSON(fresh, rel)
			}
			continue
		}
		fresh := &releaseBody{seq: rel.Seq}
		if _, loaded := s.releases.LoadOrStore(id, fresh); loaded {
			continue
		}
		// A release fetched before a concurrent DELETE may land here after
		// the delete dropped the entry. Entries are replaced only while one
		// is present, so re-checking on this path alone is enough to keep
		// a deleted stream's entry from outliving it.
		if _, err := s.router.GetStream(id); err != nil {
			s.releases.Delete(id)
		}
		return s.sharedJSON(fresh, rel)
	}
}

func (s *Server) sharedJSON(e *releaseBody, rel *service.EpochReleaseWire) ([]byte, error) {
	e.once.Do(func() { e.body, e.err = s.encodeRelease(rel) })
	return e.body, e.err
}

func (s *Server) encodeRelease(rel *service.EpochReleaseWire) ([]byte, error) {
	if s.onReleaseEncode != nil {
		s.onReleaseEncode()
	}
	return json.Marshal(rel)
}
