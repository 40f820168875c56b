// Package wal is the durability layer beneath the policy-release server: an
// append-only, CRC-checked, segmented write-ahead log plus point-in-time
// snapshots. The server journals every state-changing operation (registry
// mutations, budget charges, ingest batches, epoch closes) before
// acknowledging it, and recovers after a crash by loading the latest
// snapshot and replaying the log tail.
//
// Durable budget accounting is a privacy requirement, not a convenience:
// Blowfish's guarantee (Theorem 4.1) is cumulative, so a server that forgot
// its charges on restart would answer releases the pre-crash server had
// already paid for — silently doubling the privacy loss. The log is
// therefore written ahead of the acknowledgement: an operation the client
// saw succeed is on disk (under the fsync=always policy) before the
// response leaves the server.
//
// On-disk layout (all in one directory):
//
//	wal-<firstLSN 16-hex>.log   log segments, first record's LSN in the name
//	snap-<LSN 16-hex>.db        snapshots, covering every record with lsn <= LSN
//
// Record framing, little-endian:
//
//	[u32 length][u32 crc32c][u64 lsn][u8 kind][payload]
//
// where length counts the lsn+kind+payload bytes and the CRC (Castagnoli)
// covers the same range. A record that fails its length or CRC check ends
// the readable log: in the active (last) segment that is the expected torn
// tail of a crash and is truncated away on Open; in an earlier segment it
// is corruption and Open fails loudly. A change to this layout, this
// framing or the snapshot frame bumps service.FormatVersion.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"blowfish/internal/metrics"
)

// FsyncPolicy selects when appended records are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: an acknowledged record survives
	// kill -9 and power loss. The durability default.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a timer (Options.FsyncInterval): bounded data
	// loss, much higher append throughput.
	FsyncInterval
	// FsyncNever leaves syncing to the operating system: survives process
	// crashes (the page cache persists) but not power loss.
	FsyncNever
)

// ParseFsyncPolicy parses the -fsync flag values "always", "interval" and
// "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
	}
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// Options tunes a Log. The zero value is usable: fsync=always.
type Options struct {
	Fsync FsyncPolicy
	// FsyncInterval is the timer period for FsyncInterval; defaults to
	// 100ms.
	FsyncInterval time.Duration
	// Metrics, when non-nil, instruments the log. Appends already
	// serialize on the log mutex, so the instrument updates add a few
	// atomic operations to an I/O-bound path.
	Metrics *Metrics
}

// Metrics are the pre-resolved instruments a Log reports into. Any field
// may be nil.
type Metrics struct {
	// FsyncSeconds observes every fsync of the active segment — the
	// dominant cost of the fsync=always policy and the first thing to
	// look at when append latency moves.
	FsyncSeconds *metrics.Histogram
	// Appends and Bytes count appended records and their encoded bytes
	// (framing included).
	Appends *metrics.Counter
	Bytes   *metrics.Counter
	// Segments tracks the live segment-file count (rotations up,
	// checkpoint retirement down).
	Segments *metrics.Gauge
}

func (m *Metrics) observeFsync(start time.Time) {
	if m != nil && m.FsyncSeconds != nil {
		m.FsyncSeconds.ObserveSince(start)
	}
}

func (m *Metrics) countAppend(n int) {
	if m == nil {
		return
	}
	if m.Appends != nil {
		m.Appends.Inc()
	}
	if m.Bytes != nil {
		m.Bytes.Add(uint64(n))
	}
}

func (m *Metrics) addSegments(delta int64) {
	if m != nil && m.Segments != nil {
		m.Segments.Add(delta)
	}
}

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("wal: log closed")

// ErrCorrupt reports corruption outside the torn tail of the active
// segment — a non-final segment with an unreadable record, or a snapshot
// that fails its checksum with no older snapshot to fall back to.
var ErrCorrupt = errors.New("wal: corrupt")

// maxRecordBytes bounds a single record so a corrupt (or adversarial)
// length prefix cannot force a multi-gigabyte allocation during replay.
const maxRecordBytes = 64 << 20

const (
	headerBytes   = 4 + 4  // length + crc
	overheadBytes = 8 + 1  // lsn + kind inside the length
	segPrefix     = "wal-" // wal-<firstLSN>.log
	segSuffix     = ".log"
	snapPrefix    = "snap-" // snap-<LSN>.db
	snapSuffix    = ".db"
	snapMagic     = "BFSNAP1\n"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one decoded log entry.
type Record struct {
	LSN  uint64
	Kind byte
	Data []byte
}

// Log is an append-only segmented write-ahead log. It is safe for
// concurrent use; appends serialize on an internal mutex.
type Log struct {
	dir  string
	opts Options

	mu     sync.Mutex
	f      *os.File
	buf    []byte // scratch encode buffer, reused under mu
	lsn    uint64 // last assigned LSN
	closed bool
	failed error // sticky write error: the tail may be torn, stop appending
	dirty  bool  // unsynced appends (interval/never policies)

	flushQuit chan struct{}
	flushDone chan struct{}
}

// Open opens (or creates) the log in dir, validating existing segments and
// truncating a torn tail left by a crash. The returned log appends after
// the last valid record; Replay iterates what survived.
func Open(dir string, opts Options) (*Log, error) {
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = 100 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sweepTempSnapshots(dir)
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}
	if len(segs) == 0 {
		if err := l.openSegment(1); err != nil {
			return nil, err
		}
	} else {
		// Validate every segment; only the last may have a torn tail.
		last := uint64(0)
		for i, seg := range segs {
			final := i == len(segs)-1
			end, validBytes, err := scanSegment(filepath.Join(dir, seg.name), seg.start, last)
			if err != nil {
				return nil, err
			}
			if end.torn {
				if !final {
					return nil, fmt.Errorf("%w: segment %s has unreadable records before the active tail", ErrCorrupt, seg.name)
				}
				if err := os.Truncate(filepath.Join(dir, seg.name), validBytes); err != nil {
					return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", seg.name, err)
				}
			}
			last = advance(last, seg, end)
		}
		l.lsn = last
		f, err := os.OpenFile(filepath.Join(dir, segs[len(segs)-1].name), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		l.f = f
		opts.Metrics.addSegments(int64(len(segs)))
	}
	if opts.Fsync == FsyncInterval {
		l.flushQuit = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, nil
}

// LastLSN returns the LSN of the most recently appended record (0 when the
// log is empty).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// Append writes one record and, under fsync=always, forces it to stable
// storage before returning. The assigned LSN is returned. After a write
// error the log is failed: every subsequent Append returns the same error,
// because the on-disk tail may be torn mid-record.
func (l *Log) Append(kind byte, data []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.failed != nil {
		return 0, l.failed
	}
	if len(data) > maxRecordBytes-overheadBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d byte cap", len(data), maxRecordBytes)
	}
	lsn := l.lsn + 1
	l.buf = appendRecord(l.buf[:0], lsn, kind, data)
	if _, err := l.f.Write(l.buf); err != nil {
		l.failed = fmt.Errorf("wal: append failed, log is read-only: %w", err)
		return 0, l.failed
	}
	l.lsn = lsn
	if l.opts.Fsync == FsyncAlways {
		start := time.Time{}
		if l.opts.Metrics != nil {
			start = time.Now()
		}
		if err := l.f.Sync(); err != nil {
			l.failed = fmt.Errorf("wal: fsync failed, log is read-only: %w", err)
			return 0, l.failed
		}
		if l.opts.Metrics != nil {
			l.opts.Metrics.observeFsync(start)
		}
	} else {
		l.dirty = true
	}
	l.opts.Metrics.countAppend(len(l.buf))
	return lsn, nil
}

// Sync forces everything appended so far to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.closed || l.f == nil {
		return nil
	}
	if !l.dirty {
		return nil
	}
	start := time.Time{}
	if l.opts.Metrics != nil {
		start = time.Now()
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.opts.Metrics.observeFsync(start)
	l.dirty = false
	return nil
}

// flushLoop is the FsyncInterval timer goroutine.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	t := time.NewTicker(l.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.flushQuit:
			return
		case <-t.C:
			_ = l.Sync()
		}
	}
}

// Close syncs and closes the log. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.mu.Unlock()
	if l.flushQuit != nil {
		close(l.flushQuit)
		<-l.flushDone
	}
	return err
}

// Replay calls fn, in LSN order, for every record with LSN > after. It
// reads the segment files directly, so it may run before any Append but
// must not run concurrently with Checkpoint.
func (l *Log) Replay(after uint64, fn func(Record) error) error {
	return Replay(l.dir, after, fn)
}

// Replay iterates the records of the log in dir with LSN > after. The torn
// tail of the final segment (already truncated by Open, but Replay is also
// usable on a directory no Log has opened) ends the iteration without
// error; unreadable records elsewhere fail with ErrCorrupt.
func Replay(dir string, after uint64, fn func(Record) error) error {
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	last := uint64(0)
	for i, seg := range segs {
		final := i == len(segs)-1
		f, err := os.Open(filepath.Join(dir, seg.name))
		if err != nil {
			return err
		}
		end, ferr := decodeStream(f, seg.start, last, func(r Record) error {
			if r.LSN > after {
				return fn(r)
			}
			return nil
		})
		f.Close()
		if ferr != nil {
			return ferr
		}
		if end.torn && !final {
			return fmt.Errorf("%w: segment %s has unreadable records before the active tail", ErrCorrupt, seg.name)
		}
		last = advance(last, seg, end)
	}
	return nil
}

// advance moves the LSN high-water mark past a scanned segment. An empty
// segment still advances it: its filename records the next LSN, and
// forgetting that after a checkpoint retired every record would hand
// already-covered LSNs to new appends — which replay (correctly) skips,
// silently losing acknowledged operations on the restart after next.
func advance(last uint64, seg segment, end streamEnd) uint64 {
	if end.last > last {
		last = end.last
	}
	if seg.start > 0 && seg.start-1 > last {
		last = seg.start - 1
	}
	return last
}

// Checkpoint installs a snapshot boundary: every record with LSN <= lsn is
// covered by a snapshot the caller has durably written. The active segment
// is rotated and every segment whose records all precede the boundary is
// deleted, together with all but the two newest snapshots.
func (l *Log) Checkpoint(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	// Rotate so the boundary test below can retire the previous active
	// segment once a later checkpoint passes it.
	if err := l.rotateLocked(); err != nil {
		return err
	}
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	// A segment holds records [start_i, start_{i+1}); it is retired when its
	// successor starts at or before the boundary's successor.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].start <= lsn+1 {
			if err := os.Remove(filepath.Join(l.dir, segs[i].name)); err != nil {
				return err
			}
			l.opts.Metrics.addSegments(-1)
		}
	}
	return pruneSnapshots(l.dir, 2)
}

// rotateLocked closes the active segment and opens a fresh one starting at
// the next LSN.
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.dirty = false
	return l.openSegment(l.lsn + 1)
}

// openSegment creates and opens the segment whose first record will carry
// LSN start.
func (l *Log) openSegment(start uint64) error {
	name := fmt.Sprintf("%s%016x%s", segPrefix, start, segSuffix)
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.opts.Metrics.addSegments(1)
	return nil
}

// appendRecord encodes one record onto dst.
func appendRecord(dst []byte, lsn uint64, kind byte, data []byte) []byte {
	n := overheadBytes + len(data)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	body := make([]byte, 0, n)
	body = binary.LittleEndian.AppendUint64(body, lsn)
	body = append(body, kind)
	body = append(body, data...)
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(body, castagnoli))
	return append(dst, body...)
}

// streamEnd reports how a segment scan ended.
type streamEnd struct {
	last uint64 // last valid LSN seen (0 if none)
	torn bool   // the stream ended at an unreadable record, not clean EOF
}

// decodeStream reads records from r, validating framing, CRC, and LSN
// continuity (the first record must carry the segment's start LSN; each
// record increments by one from prev). It stops at the first unreadable
// record, reporting it via streamEnd rather than an error: the caller
// decides whether a torn end is acceptable.
func decodeStream(r io.Reader, start, prev uint64, fn func(Record) error) (streamEnd, error) {
	end := streamEnd{last: 0}
	hdr := make([]byte, headerBytes)
	expected := start
	if prev > 0 {
		expected = prev + 1
	}
	var body []byte
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			if err == io.EOF {
				return end, nil // clean end
			}
			end.torn = true
			return end, nil // partial header: torn tail
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if n < overheadBytes || n > maxRecordBytes {
			end.torn = true
			return end, nil
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			end.torn = true
			return end, nil
		}
		if crc32.Checksum(body, castagnoli) != crc {
			end.torn = true
			return end, nil
		}
		lsn := binary.LittleEndian.Uint64(body[0:8])
		if lsn != expected {
			end.torn = true
			return end, nil
		}
		rec := Record{LSN: lsn, Kind: body[8], Data: body[9:]}
		if fn != nil {
			if err := fn(rec); err != nil {
				return end, err
			}
		}
		end.last = lsn
		expected = lsn + 1
	}
}

// scanSegment validates one segment file, returning how it ended and the
// byte offset of the end of the last valid record (for torn-tail
// truncation).
func scanSegment(path string, start, prev uint64) (streamEnd, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return streamEnd{}, 0, err
	}
	defer f.Close()
	var valid int64
	end, err := decodeStream(f, start, prev, func(r Record) error {
		valid += int64(headerBytes + overheadBytes + len(r.Data))
		return nil
	})
	return end, valid, err
}

type segment struct {
	name  string
	start uint64
}

// listSegments returns the log's segments sorted by starting LSN.
func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		hexpart := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		start, err := strconv.ParseUint(hexpart, 16, 64)
		if err != nil {
			continue // foreign file, ignore
		}
		segs = append(segs, segment{name: name, start: start})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	return segs, nil
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
