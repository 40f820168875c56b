package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"blowfish/internal/domain"
	"blowfish/internal/engine"
	"blowfish/internal/metrics"
)

// Event is one wire-level mutation of a streamed dataset.
type Event struct {
	// Op is "append", "upsert" or "delete".
	Op string
	// ID is the tuple identifier for upsert and delete (Dataset index;
	// Remove recycles the last identifier into the removed slot).
	ID int
	// Row holds the attribute values for append and upsert.
	Row []int
}

// ErrIngestClosed is returned by Submit after Close.
var ErrIngestClosed = errors.New("stream: ingestor closed")

// QueueFullError is returned by TrySubmit when the ingest queue lacks room
// for the whole batch. Nothing was enqueued; the caller should retry after
// backing off (servers translate this into a structured queue_full
// response with a Retry-After hint instead of blocking the connection).
type QueueFullError struct {
	// Batch is the size of the rejected batch.
	Batch int
	// Free is the queue capacity that was available.
	Free int
	// Depth is the queue's total capacity.
	Depth int
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("stream: ingest queue full (%d events submitted, %d of %d slots free)",
		e.Batch, e.Free, e.Depth)
}

// IngestConfig tunes an Ingestor. The zero value is usable.
type IngestConfig struct {
	// BatchSize is the largest mutation batch applied under one lock
	// acquisition; defaults to 256.
	BatchSize int
	// FlushInterval bounds how long a non-full batch waits for more events
	// before applying; defaults to 2ms.
	FlushInterval time.Duration
	// QueueDepth is the most events the queue between Submit and the writer
	// holds; Submit blocks (backpressure) when it is full. Defaults to 4096.
	QueueDepth int
	// StartSeq resumes sequence numbering after a recovery: the first
	// submitted event is assigned StartSeq+1 and the processed cursor
	// starts at StartSeq, so clients polling processed_seq keep a monotone
	// view across restarts. Zero (the default) starts a fresh log at 1.
	StartSeq uint64
	// Metrics, when non-nil, instruments the writer goroutine. All
	// increments happen on that single goroutine, after the batch applies,
	// so instrumentation adds nothing to the Submit path; queue depth and
	// cursor gauges come from Stats() at scrape time instead.
	Metrics *IngestMetrics
}

// IngestMetrics are the pre-resolved instruments an ingestor's writer
// goroutine reports into. Any field may be nil.
type IngestMetrics struct {
	// ApplySeconds observes the latency of each batch apply — journal
	// append (and its fsync, under fsync=always) plus the index update.
	ApplySeconds *metrics.Histogram
	// Batches and Events count applied batches and the events in them.
	Batches *metrics.Counter
	Events  *metrics.Counter
	// Rejected counts apply-time rejections (bad tuple ids).
	Rejected *metrics.Counter
	// JournalFailures counts batches refused by a failed write-ahead
	// append (nothing applied, cursor held back).
	JournalFailures *metrics.Counter
}

// WithDefaults returns c with every zero tuning field set to its default:
// the configuration NewIngestor runs with.
func (c IngestConfig) WithDefaults() IngestConfig {
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4096
	}
	return c
}

// IngestStats is a snapshot of an ingestor's counters.
type IngestStats struct {
	// Submitted is the highest sequence number assigned.
	Submitted uint64
	// Processed is the highest sequence number the writer has finished with
	// (applied or rejected); the cursor WaitApplied waits on.
	Processed uint64
	// Rejected counts events that failed at apply time (bad tuple ids).
	Rejected uint64
	// LastError describes the most recent apply-time rejection, "" if none.
	LastError string
	// Queued is the number of events the writer has not taken yet.
	Queued int
}

// Ingestor is the single-writer event log over a Table: Submit validates
// and enqueues events, a dedicated goroutine applies them in batches so the
// per-event cost of the index lock is amortized across the batch. One
// ingestor per dataset; Submit is safe for concurrent use.
//
// The queue is a ring of QueueDepth mutations under mu. Sequence numbers
// are implicit: events are numbered as they enter the ring, so the head
// holds seq nextSeq-count+1. Submitters append whole batches and the
// writer takes up to BatchSize events per lock acquisition.
type Ingestor struct {
	tbl *Table
	cfg IngestConfig

	// submitMu serializes blocking Submits, so one Submit's events stay
	// contiguous while it waits for space.
	submitMu sync.Mutex

	mu      sync.Mutex // guards the ring, nextSeq, blocked and closed
	ring    []engine.Mutation
	head    int // ring index of the oldest queued event
	count   int // events queued, not yet taken by the writer
	nextSeq uint64
	blocked bool // a Submit is mid-batch, waiting for room
	closed  bool

	wake  chan struct{} // buffer 1: events arrived; wakes the writer
	space chan struct{} // buffer 1: the writer took events; wakes a blocked Submit
	quit  chan struct{}
	done  chan struct{}

	// mutBuf is the writer goroutine's reusable apply batch.
	mutBuf []engine.Mutation

	stateMu   sync.Mutex // guards the applied cursor + notify channel
	processed uint64
	rejected  uint64
	lastErr   string
	notify    chan struct{}

	closeOnce sync.Once
}

// NewIngestor starts the writer goroutine for tbl. Close it to stop.
func NewIngestor(tbl *Table, cfg IngestConfig) (*Ingestor, error) {
	if tbl == nil {
		return nil, errors.New("stream: nil table")
	}
	cfg = cfg.WithDefaults()
	in := &Ingestor{
		tbl:       tbl,
		cfg:       cfg,
		nextSeq:   cfg.StartSeq,
		processed: cfg.StartSeq,
		ring:      make([]engine.Mutation, cfg.QueueDepth),
		mutBuf:    make([]engine.Mutation, 0, cfg.BatchSize),
		wake:      make(chan struct{}, 1),
		space:     make(chan struct{}, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		notify:    make(chan struct{}),
	}
	go in.run()
	return in, nil
}

// EncodeEvents validates events against dom and lowers them to mutations.
// Row values are encoded eagerly so the submitter learns about malformed
// rows synchronously; tuple-id range errors can only surface at apply time
// (the dataset length changes under the queue) and are counted as
// rejections instead.
func EncodeEvents(dom *domain.Domain, events []Event) ([]engine.Mutation, error) {
	muts := make([]engine.Mutation, len(events))
	for i, ev := range events {
		switch ev.Op {
		case "append":
			p, err := dom.Encode(ev.Row...)
			if err != nil {
				return nil, fmt.Errorf("event %d: %w", i, err)
			}
			muts[i] = engine.Mutation{Op: engine.MutAdd, P: p}
		case "upsert":
			p, err := dom.Encode(ev.Row...)
			if err != nil {
				return nil, fmt.Errorf("event %d: %w", i, err)
			}
			if ev.ID < 0 {
				return nil, fmt.Errorf("event %d: negative tuple id %d", i, ev.ID)
			}
			muts[i] = engine.Mutation{Op: engine.MutSet, Index: ev.ID, P: p}
		case "delete":
			if ev.ID < 0 {
				return nil, fmt.Errorf("event %d: negative tuple id %d", i, ev.ID)
			}
			muts[i] = engine.Mutation{Op: engine.MutRemove, Index: ev.ID}
		default:
			return nil, fmt.Errorf("event %d: unknown op %q (want append, upsert or delete)", i, ev.Op)
		}
	}
	return muts, nil
}

// Submit validates events and enqueues them, returning the sequence numbers
// assigned to the first and last event. It blocks when the queue is full
// (backpressure) and fails fast with ErrIngestClosed after Close. A
// validation error enqueues nothing. When Close lands mid-batch, the
// already-enqueued prefix still applies (the writer drains the queue before
// exiting); the error then reports the partially enqueued range — first
// and last cover what actually landed — so callers can tell their clients
// the truth instead of claiming total failure.
func (in *Ingestor) Submit(events []Event) (first, last uint64, err error) {
	muts, err := EncodeEvents(in.tbl.Dataset().Domain(), events)
	if err != nil {
		return 0, 0, err
	}
	if len(muts) == 0 {
		return 0, 0, nil
	}
	in.submitMu.Lock()
	defer in.submitMu.Unlock()
	sent := 0
	for {
		start, n, err := in.push(muts[sent:], true)
		if err != nil {
			if sent == 0 {
				return 0, 0, err
			}
			return first, last, fmt.Errorf(
				"stream: %d of %d events enqueued (seqs %d-%d) before close: %w",
				sent, len(muts), first, last, err)
		}
		if sent == 0 {
			first = start
		}
		sent += n
		last = start + uint64(n) - 1
		if sent == len(muts) {
			return first, last, nil
		}
		select {
		case <-in.space:
		case <-in.quit:
		}
	}
}

// TrySubmit is Submit without the blocking: the whole batch is enqueued
// atomically if the queue has room for every event, and nothing is
// enqueued — returning a *QueueFullError — if it does not. While a Submit
// is blocked mid-batch the queue counts as full, so a TrySubmit never
// splits that Submit's sequence range.
func (in *Ingestor) TrySubmit(events []Event) (first, last uint64, err error) {
	muts, err := EncodeEvents(in.tbl.Dataset().Domain(), events)
	if err != nil {
		return 0, 0, err
	}
	if len(muts) == 0 {
		return 0, 0, nil
	}
	start, n, err := in.push(muts, false)
	if err != nil {
		return 0, 0, err
	}
	return start, start + uint64(n) - 1, nil
}

// push appends muts to the ring under one lock acquisition and wakes the
// writer, returning the sequence number of the first appended event and
// how many were appended. With partial set (a blocking Submit) it appends
// what fits and marks the Submit blocked until the rest follows; otherwise
// it appends all of muts or, when they do not fit, nothing and a
// *QueueFullError.
func (in *Ingestor) push(muts []engine.Mutation, partial bool) (start uint64, n int, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		in.blocked = false
		return 0, 0, ErrIngestClosed
	}
	depth := len(in.ring)
	free := depth - in.count
	n = len(muts)
	switch {
	case partial:
		n = min(n, free)
		in.blocked = n < len(muts)
	case in.blocked:
		// A blocked Submit owns the free room until its range is complete.
		return 0, 0, &QueueFullError{Batch: n, Free: 0, Depth: depth}
	case free < n:
		return 0, 0, &QueueFullError{Batch: n, Free: free, Depth: depth}
	}
	start = in.nextSeq + 1
	if n == 0 {
		return start, 0, nil
	}
	tail := (in.head + in.count) % depth
	k := copy(in.ring[tail:], muts[:n])
	copy(in.ring, muts[k:n])
	in.count += n
	in.nextSeq += uint64(n)
	select {
	case in.wake <- struct{}{}:
	default:
	}
	return start, n, nil
}

// SubmittedSeq returns the highest assigned sequence number.
func (in *Ingestor) SubmittedSeq() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.nextSeq
}

// ProcessedSeq returns the highest sequence number the writer has finished
// with.
func (in *Ingestor) ProcessedSeq() uint64 {
	in.stateMu.Lock()
	defer in.stateMu.Unlock()
	return in.processed
}

// Stats returns a snapshot of the ingestor's counters.
func (in *Ingestor) Stats() IngestStats {
	in.mu.Lock()
	submitted, queued := in.nextSeq, in.count
	in.mu.Unlock()
	in.stateMu.Lock()
	defer in.stateMu.Unlock()
	return IngestStats{
		Submitted: submitted,
		Processed: in.processed,
		Rejected:  in.rejected,
		LastError: in.lastErr,
		Queued:    queued,
	}
}

// WaitProcessed blocks until the writer has processed every event up to and
// including seq, the context is done, or the ingestor is closed with seq
// still unprocessed.
func (in *Ingestor) WaitProcessed(ctx context.Context, seq uint64) error {
	for {
		in.stateMu.Lock()
		cur, ch := in.processed, in.notify
		in.stateMu.Unlock()
		if cur >= seq {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		case <-in.done:
			in.stateMu.Lock()
			cur = in.processed
			in.stateMu.Unlock()
			if cur >= seq {
				return nil
			}
			return ErrIngestClosed
		}
	}
}

// Flush blocks until everything submitted so far has been applied.
func (in *Ingestor) Flush(ctx context.Context) error {
	return in.WaitProcessed(ctx, in.SubmittedSeq())
}

// Close stops accepting events, drains and applies the queue, and stops the
// writer goroutine. It is idempotent and returns once the writer has
// exited.
func (in *Ingestor) Close() {
	<-in.Shutdown()
}

// Shutdown is the non-blocking half of Close: it stops accepting events
// and signals the writer to drain, returning a channel that closes when
// the writer has exited. Server.Close uses it to signal every ingestor
// first and then wait on all of them under one deadline, instead of
// serializing full drains.
func (in *Ingestor) Shutdown() <-chan struct{} {
	in.closeOnce.Do(func() {
		in.mu.Lock()
		in.closed = true
		in.mu.Unlock()
		close(in.quit)
	})
	return in.done
}

// run is the single writer: it takes events in batches bounded by
// BatchSize and FlushInterval and applies each batch under one table lock
// acquisition. After Close it drains the queue without waiting and exits.
func (in *Ingestor) run() {
	defer close(in.done)
	timer := time.NewTimer(in.cfg.FlushInterval)
	timer.Stop()
	for {
		queued, closed := in.queued()
		switch {
		case queued == 0 && closed:
			return
		case queued == 0:
			select {
			case <-in.wake:
			case <-in.quit:
			}
			continue
		case queued < in.cfg.BatchSize && !closed:
			in.waitFill(timer)
		}
		in.apply(in.take())
	}
}

// queued reports how many events wait for the writer and whether the
// ingestor is closed.
func (in *Ingestor) queued() (int, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.count, in.closed
}

// waitFill waits at most FlushInterval for a short batch to fill up to
// BatchSize, so light traffic is not delayed and heavy traffic amortizes.
// Close ends the wait: the queue then drains without waiting.
func (in *Ingestor) waitFill(timer *time.Timer) {
	timer.Reset(in.cfg.FlushInterval)
	defer timer.Stop()
	for {
		select {
		case <-in.wake:
			if queued, _ := in.queued(); queued >= in.cfg.BatchSize {
				return
			}
		case <-timer.C:
			return
		case <-in.quit:
			return
		}
	}
}

// take moves up to BatchSize events from the head of the ring into the
// writer's batch buffer under one lock acquisition, returning the first
// event's sequence number and the batch, and wakes a Submit waiting for
// room.
func (in *Ingestor) take() (first uint64, batch []engine.Mutation) {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := min(in.count, in.cfg.BatchSize)
	batch = in.mutBuf[:n]
	k := copy(batch, in.ring[in.head:])
	copy(batch[k:], in.ring)
	first = in.nextSeq - uint64(in.count) + 1
	in.head = (in.head + n) % len(in.ring)
	in.count -= n
	if in.blocked {
		select {
		case in.space <- struct{}{}:
		default:
		}
	}
	return first, batch
}

// apply pushes one batch, numbered from first, through the table via
// ApplyLogged, which journals it write-ahead (durable servers), applies it
// skipping over individually rejected mutations (bad tuple ids) so one
// poison event cannot wedge the stream, and records the sequence cursor —
// one lock acquisition for all three. Then the processed cursor advances
// and waiters wake.
func (in *Ingestor) apply(first uint64, muts []engine.Mutation) {
	met := in.cfg.Metrics
	var start time.Time
	if met != nil {
		start = time.Now()
	}
	_, rej, err := in.tbl.ApplyLogged(first, muts)
	if met != nil {
		if met.ApplySeconds != nil {
			met.ApplySeconds.ObserveSince(start)
		}
		if errors.Is(err, ErrJournalFailed) {
			if met.JournalFailures != nil {
				met.JournalFailures.Inc()
			}
		} else {
			if met.Batches != nil {
				met.Batches.Inc()
			}
			if met.Events != nil {
				met.Events.Add(uint64(len(muts)))
			}
			if met.Rejected != nil {
				met.Rejected.Add(uint64(rej))
			}
		}
	}
	if errors.Is(err, ErrJournalFailed) {
		// The write-ahead append failed: nothing was applied and nothing
		// is durable, so the processed cursor must NOT advance — a wait=1
		// client blocks (and times out with an error) instead of
		// receiving a false ack for events that would vanish on restart.
		in.stateMu.Lock()
		in.lastErr = err.Error()
		in.stateMu.Unlock()
		return
	}
	var lastErr string
	if err != nil {
		lastErr = err.Error()
	}
	in.stateMu.Lock()
	in.processed = first + uint64(len(muts)) - 1
	in.rejected += uint64(rej)
	if lastErr != "" {
		in.lastErr = lastErr
	}
	close(in.notify)
	in.notify = make(chan struct{})
	in.stateMu.Unlock()
}
