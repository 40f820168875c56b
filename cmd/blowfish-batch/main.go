// Command blowfish-batch converts an NDJSON event stream (the same
// one-object-per-line events POST /v1/datasets/{id}/events accepts) into
// the binary columnar batch frames of internal/codec — the zero-copy ingest
// encoding — and either writes them to stdout or POSTs them straight to a
// server, one request per frame. The server applies each frame before its
// 202, so when the command exits every frame it sent is applied.
//
// Usage:
//
//	# encode to a file, replay it later with curl
//	blowfish-batch -attrs 1 < events.ndjson > events.batch
//	curl -s localhost:8080/v1/datasets/ds-1/events \
//	  -H 'Content-Type: application/x-blowfish-batch' --data-binary @events.batch
//
//	# or stream directly to the server, one frame per -max events
//	blowfish-batch -attrs 1 -max 4096 \
//	  -url http://localhost:8080/v1/datasets/ds-1/events < events.ndjson
//
// Each frame is self-contained (length-prefixed, CRC-checked), so frames
// concatenate: a file of them replays as one request body or many.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"blowfish"
	"blowfish/internal/codec"
	"blowfish/internal/service"
)

func main() {
	attrs := flag.Int("attrs", 0, "number of row attributes (the dataset domain's width); required")
	max := flag.Int("max", service.MaxEvents, "events per frame")
	url := flag.String("url", "", "events endpoint to POST frames to (default: write frames to stdout)")
	flag.Parse()
	if *attrs < 0 || *attrs > codec.MaxAttrs {
		fail(fmt.Errorf("-attrs %d out of range [0,%d]", *attrs, codec.MaxAttrs))
	}
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected arguments %v (events are read from stdin)", flag.Args()))
	}
	if *max < 1 || *max > service.MaxEvents {
		fail(fmt.Errorf("-max %d out of range [1,%d] (the server refuses larger requests)", *max, service.MaxEvents))
	}
	st, err := convert(os.Stdin, *attrs, *max, sinkFor(*url))
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "blowfish-batch: %d events in %d frames (%d bytes)\n", st.events, st.frames, st.sent)
}

// stats counts what convert sent.
type stats struct {
	events, frames int
	sent           int64
}

// convert reads events from in, one object per non-empty line, and hands
// sink one frame per max events. A line must decode as the server decodes
// an NDJSON event line (service.EventWire, unknown fields and trailing
// data refused); the first that does not stops the conversion, named by
// its line number.
func convert(in io.Reader, attrs, max int, sink func([]byte) error) (stats, error) {
	var (
		st    stats
		batch []blowfish.StreamEvent
		frame []byte
		line  int
	)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		var err error
		frame, err = codec.AppendFrame(frame[:0], batch, attrs)
		if err != nil {
			return fmt.Errorf("line %d: encoding frame: %w", line, err)
		}
		if err := sink(frame); err != nil {
			return err
		}
		st.frames++
		st.sent += int64(len(frame))
		batch = batch[:0]
		return nil
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var ev service.EventWire
		if err := service.DecodeOne(bytes.NewReader(raw), &ev); err != nil {
			return st, fmt.Errorf("line %d: %w", line, err)
		}
		batch = append(batch, blowfish.StreamEvent{Op: ev.Op, ID: ev.ID, Row: ev.Row})
		st.events++
		if len(batch) >= max {
			if err := flush(); err != nil {
				return st, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return st, fmt.Errorf("reading events: %w", err)
	}
	return st, flush()
}

// sinkFor returns the frame consumer: stdout, or a client that POSTs each
// frame and stops at the first response that is not 202.
func sinkFor(url string) func([]byte) error {
	if url == "" {
		return func(frame []byte) error {
			_, err := os.Stdout.Write(frame)
			return err
		}
	}
	client := &http.Client{Timeout: 60 * time.Second}
	return func(frame []byte) error {
		resp, err := client.Post(url, codec.ContentType, bytes.NewReader(frame))
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
		}
		return nil
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "blowfish-batch:", err)
	os.Exit(1)
}
