// Package codec implements the binary columnar batch frame for
// high-throughput event ingest: a length-prefixed, CRC-checked,
// little-endian frame carrying column vectors — op kinds, tuple ids,
// attribute values — for a batch of stream events.
//
// The frame exists because the NDJSON ingest front tops out well below
// what the write-ahead log can absorb: every event pays a JSON decode and
// several small heap allocations. A columnar frame decodes with no
// per-event work beyond reading fixed-width integers, and a Decoder reuses
// its scratch buffers across requests (sync.Pool on the serving side), so
// the steady-state decode path allocates nothing per event.
//
// Frame layout (everything little-endian):
//
//	[u32 length][u32 crc32c][payload]
//	payload := [u8 version=1][u8 numAttrs][u16 reserved=0][u32 count]
//	           [ops     : count   × u8]
//	           [ids     : nKeyed  × u32]   nKeyed = #upsert + #delete
//	           [values  : numAttrs columns, each nRowed × u32]
//	                                       nRowed = #append + #upsert
//
// length counts the payload bytes; the CRC (Castagnoli polynomial, the
// same convention as the write-ahead log's record framing) covers exactly
// the payload. Column order is fixed: the op column first, then the tuple
// ids of keyed events (upserts and deletes) in event order, then the
// attribute values of rowed events (appends and upserts) attribute-major —
// column a holds the a-th attribute of every rowed event, in event order.
// A body may carry any number of frames back to back; events concatenate
// in frame order.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"blowfish/internal/stream"
)

// ContentType is the HTTP content type that selects the binary batch
// frame on the events endpoint.
const ContentType = "application/x-blowfish-batch"

// Version is the frame format version this package encodes and decodes.
const Version = 1

// Op byte values of the op column.
const (
	OpAppend byte = 0
	OpUpsert byte = 1
	OpDelete byte = 2
)

// MaxAttrs bounds the per-frame attribute count (the column count is a
// single byte on the wire).
const MaxAttrs = 255

const (
	headerBytes        = 4 + 4 // length + crc
	payloadHeaderBytes = 1 + 1 + 2 + 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Event is the unit the codec carries: the stream subsystem's wire-level
// mutation (Op "append"/"upsert"/"delete", tuple ID, attribute Row).
type Event = stream.Event

// opByte lowers an event's op string to its column byte.
func opByte(op string) (byte, bool) {
	switch op {
	case "append":
		return OpAppend, true
	case "upsert":
		return OpUpsert, true
	case "delete":
		return OpDelete, true
	}
	return 0, false
}

var opString = [3]string{OpAppend: "append", OpUpsert: "upsert", OpDelete: "delete"}

// MaxFrameBytes returns the encoded size of a frame carrying `count`
// events over `numAttrs` attributes when every event is an upsert (the
// widest op: one id plus one full row) — the bound the decoder enforces on
// the length prefix before buffering a frame.
func MaxFrameBytes(count, numAttrs int) int {
	return headerBytes + payloadHeaderBytes + count + 4*count + 4*numAttrs*count
}

// AppendFrame appends one encoded frame carrying events to dst and returns
// the extended slice. Every append and upsert row must have exactly
// numAttrs values, each in [0, 2^32); tuple ids must fit in [0, 2^32).
func AppendFrame(dst []byte, events []Event, numAttrs int) ([]byte, error) {
	if numAttrs < 0 || numAttrs > MaxAttrs {
		return nil, fmt.Errorf("codec: %d attributes exceed the frame's %d-column cap", numAttrs, MaxAttrs)
	}
	if len(events) > math.MaxUint32 {
		return nil, fmt.Errorf("codec: %d events overflow the frame count", len(events))
	}
	nKeyed, nRowed := 0, 0
	for i, ev := range events {
		op, ok := opByte(ev.Op)
		if !ok {
			return nil, fmt.Errorf("codec: event %d: unknown op %q (want append, upsert or delete)", i, ev.Op)
		}
		if op != OpAppend {
			if ev.ID < 0 || int64(ev.ID) > math.MaxUint32 {
				return nil, fmt.Errorf("codec: event %d: tuple id %d outside [0, 2^32)", i, ev.ID)
			}
			nKeyed++
		}
		if op != OpDelete {
			if len(ev.Row) != numAttrs {
				return nil, fmt.Errorf("codec: event %d: row has %d values, frame has %d columns", i, len(ev.Row), numAttrs)
			}
			for a, v := range ev.Row {
				if v < 0 || int64(v) > math.MaxUint32 {
					return nil, fmt.Errorf("codec: event %d: attribute %d value %d outside [0, 2^32)", i, a, v)
				}
			}
			nRowed++
		}
	}
	payloadLen := payloadHeaderBytes + len(events) + 4*nKeyed + 4*numAttrs*nRowed
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payloadLen))
	crcAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // CRC placeholder, patched below
	payloadAt := len(dst)
	dst = append(dst, Version, byte(numAttrs), 0, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(events)))
	for _, ev := range events {
		op, _ := opByte(ev.Op)
		dst = append(dst, op)
	}
	for _, ev := range events {
		if ev.Op != "append" {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(ev.ID))
		}
	}
	for a := 0; a < numAttrs; a++ {
		for _, ev := range events {
			if ev.Op != "delete" {
				dst = binary.LittleEndian.AppendUint32(dst, uint32(ev.Row[a]))
			}
		}
	}
	binary.LittleEndian.PutUint32(dst[crcAt:], crc32.Checksum(dst[payloadAt:], castagnoli))
	return dst, nil
}

// Decoder decodes batch frames, reusing its scratch buffers — the frame
// buffer, the event slice, and the flat backing array every decoded Row is
// carved from — across calls, so a pooled Decoder's steady-state decode
// allocates nothing per event. The events returned by DecodeAll alias the
// Decoder's scratch: they are valid until the next DecodeAll (or until the
// Decoder goes back to its pool) and must not be retained.
type Decoder struct {
	hdr    [headerBytes]byte
	frame  []byte
	events []Event
	rows   []int
}

var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// GetDecoder fetches a Decoder from the package pool.
func GetDecoder() *Decoder { return decoderPool.Get().(*Decoder) }

// PutDecoder returns a Decoder (and its scratch) to the package pool. The
// events of its last DecodeAll become invalid.
func PutDecoder(d *Decoder) { decoderPool.Put(d) }

// DecodeAll reads frames from r until EOF and returns the concatenated
// events. Every frame must declare exactly numAttrs value columns, and the
// total event count across frames is capped at maxEvents (a frame whose
// length prefix could not possibly fit the remaining allowance is rejected
// before it is buffered, bounding memory against corrupt or adversarial
// prefixes). Any framing, CRC or column inconsistency fails the whole
// decode: a torn or bit-flipped body is rejected, never partially applied.
func (d *Decoder) DecodeAll(r io.Reader, numAttrs, maxEvents int) ([]Event, error) {
	if numAttrs < 0 || numAttrs > MaxAttrs {
		return nil, fmt.Errorf("codec: %d attributes exceed the frame's %d-column cap", numAttrs, MaxAttrs)
	}
	if maxEvents < 0 {
		maxEvents = 0
	}
	d.events = d.events[:0]
	d.rows = d.rows[:0]
	rowOff := 0
	for {
		if _, err := io.ReadFull(r, d.hdr[:]); err != nil {
			if err == io.EOF {
				return d.events, nil
			}
			return nil, fmt.Errorf("codec: torn frame header: %w", err)
		}
		payloadLen := int(binary.LittleEndian.Uint32(d.hdr[0:4]))
		crc := binary.LittleEndian.Uint32(d.hdr[4:8])
		remaining := maxEvents - len(d.events)
		if max := MaxFrameBytes(remaining, numAttrs) - headerBytes; payloadLen > max {
			return nil, fmt.Errorf("codec: frame of %d payload bytes exceeds the %d-byte bound for %d remaining events", payloadLen, max, remaining)
		}
		if payloadLen < payloadHeaderBytes {
			return nil, fmt.Errorf("codec: frame payload of %d bytes is shorter than the %d-byte header", payloadLen, payloadHeaderBytes)
		}
		if cap(d.frame) < payloadLen {
			d.frame = make([]byte, payloadLen)
		}
		p := d.frame[:payloadLen]
		if _, err := io.ReadFull(r, p); err != nil {
			return nil, fmt.Errorf("codec: torn frame payload: %w", err)
		}
		if got := crc32.Checksum(p, castagnoli); got != crc {
			return nil, fmt.Errorf("codec: frame CRC mismatch (got %08x, want %08x)", got, crc)
		}
		if p[0] != Version {
			return nil, fmt.Errorf("codec: unsupported frame version %d (want %d)", p[0], Version)
		}
		if int(p[1]) != numAttrs {
			return nil, fmt.Errorf("codec: frame declares %d value columns, want %d", p[1], numAttrs)
		}
		if p[2] != 0 || p[3] != 0 {
			return nil, errors.New("codec: non-zero reserved frame bytes")
		}
		count := int(binary.LittleEndian.Uint32(p[4:8]))
		if count > remaining {
			return nil, fmt.Errorf("codec: %d events exceed the remaining allowance %d", count, remaining)
		}
		ops := p[payloadHeaderBytes:]
		if len(ops) < count {
			return nil, fmt.Errorf("codec: frame truncates the op column (%d bytes for %d events)", len(ops), count)
		}
		ops = ops[:count]
		nKeyed, nRowed := 0, 0
		for i, op := range ops {
			switch op {
			case OpAppend:
				nRowed++
			case OpUpsert:
				nKeyed++
				nRowed++
			case OpDelete:
				nKeyed++
			default:
				return nil, fmt.Errorf("codec: event %d: unknown op byte %d", i, op)
			}
		}
		if want := payloadHeaderBytes + count + 4*nKeyed + 4*numAttrs*nRowed; payloadLen != want {
			return nil, fmt.Errorf("codec: frame payload is %d bytes, columns require %d", payloadLen, want)
		}
		ids := p[payloadHeaderBytes+count:]
		vals := ids[4*nKeyed:]
		// Grow the flat row backing once per frame; every Row below is a
		// sub-slice of it, so decoding allocates no per-event storage.
		need := rowOff + nRowed*numAttrs
		if cap(d.rows) < need {
			grown := make([]int, need)
			copy(grown, d.rows[:rowOff])
			d.rows = grown
			// Re-carve rows handed out for earlier frames onto the new
			// backing so one body's events share one array.
			reOff := 0
			for i := range d.events {
				if n := len(d.events[i].Row); n > 0 {
					d.events[i].Row = d.rows[reOff : reOff+n : reOff+n]
					reOff += n
				}
			}
		}
		d.rows = d.rows[:need]
		keyed, rowed := 0, 0
		for _, op := range ops {
			ev := Event{Op: opString[op]}
			if op != OpAppend {
				ev.ID = int(binary.LittleEndian.Uint32(ids[4*keyed:]))
				keyed++
			}
			if op != OpDelete {
				row := d.rows[rowOff : rowOff+numAttrs : rowOff+numAttrs]
				for a := 0; a < numAttrs; a++ {
					row[a] = int(binary.LittleEndian.Uint32(vals[4*(a*nRowed+rowed):]))
				}
				ev.Row = row
				rowOff += numAttrs
				rowed++
			}
			d.events = append(d.events, ev)
		}
	}
}
