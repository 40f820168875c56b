package stream

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTrySubmitQueueFull pins the explicit-backpressure contract: with the
// writer wedged behind the table's lock, a batch larger than the queue's
// free space is rejected whole with a *QueueFullError, nothing is
// enqueued, and once the writer drains the queue accepts again.
func TestTrySubmitQueueFull(t *testing.T) {
	f := newFixture(t, 16, 100, 1, IngestConfig{QueueDepth: 4, BatchSize: 4})

	// Wedge the writer: ApplyLogged needs the table's write lock, so a held
	// read lock stalls it after it has drained at most one batch.
	f.tbl.RLock()
	unlocked := false
	defer func() {
		if !unlocked {
			f.tbl.RUnlock()
		}
	}()

	// Fill the queue (plus whatever the writer already pulled into its
	// stalled batch). Loop until a TrySubmit reports queue_full.
	var accepted uint64
	var qf *QueueFullError
	for i := 0; i < 100; i++ {
		first, last, err := f.ing.TrySubmit(appends(i % 16))
		if err == nil {
			if first == 0 || last < first {
				t.Fatalf("accepted batch with bad seqs [%d,%d]", first, last)
			}
			accepted++
			continue
		}
		if !errors.As(err, &qf) {
			t.Fatalf("TrySubmit: want *QueueFullError, got %v", err)
		}
		break
	}
	if qf == nil {
		t.Fatal("queue never filled")
	}
	if qf.Depth != 4 || qf.Batch != 1 || qf.Free != 0 {
		t.Fatalf("QueueFullError fields: %+v", *qf)
	}

	// A rejected TrySubmit must not have assigned sequence numbers.
	if got := f.ing.SubmittedSeq(); got != accepted {
		t.Fatalf("SubmittedSeq = %d after %d accepted events", got, accepted)
	}

	// An oversized batch is rejected even on an empty queue: all-or-nothing.
	f.tbl.RUnlock()
	unlocked = true
	if err := f.ing.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if _, _, err := f.ing.TrySubmit(appends(1, 2, 3, 4, 5)); !errors.As(err, &qf) {
		t.Fatalf("oversized batch: want *QueueFullError, got %v", err)
	} else if qf.Batch != 5 || qf.Free != 4 {
		t.Fatalf("oversized batch fields: %+v", *qf)
	}

	// Every accepted event must land: no acked event is dropped.
	if _, _, err := f.ing.TrySubmit(appends(1, 2)); err != nil {
		t.Fatalf("TrySubmit after drain: %v", err)
	}
	if err := f.ing.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got, want := f.ds.Len(), int(accepted)+2; got != want {
		t.Fatalf("dataset has %d rows, want %d", got, want)
	}
}

// TestTrySubmitValidatesAndCloses mirrors Submit's edge cases.
func TestTrySubmitValidatesAndCloses(t *testing.T) {
	f := newFixture(t, 16, 100, 1, IngestConfig{})
	if _, _, err := f.ing.TrySubmit([]Event{{Op: "bogus"}}); err == nil {
		t.Fatal("want validation error")
	}
	if first, last, err := f.ing.TrySubmit(nil); first != 0 || last != 0 || err != nil {
		t.Fatalf("empty batch: %d %d %v", first, last, err)
	}
	f.ing.Close()
	if _, _, err := f.ing.TrySubmit(appends(1)); !errors.Is(err, ErrIngestClosed) {
		t.Fatalf("after close: want ErrIngestClosed, got %v", err)
	}
}

// within runs f on its own goroutine and fails the test if it has not
// returned after d: a contract that a call must not block would otherwise
// hang the run until the package timeout.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s blocked for %v", what, d)
	}
}

// submitResult is one Submit call's outcome, reported from its goroutine.
type submitResult struct {
	first, last uint64
	err         error
}

// wedgedSubmit wedges the writer behind the table's read lock, then starts
// a Submit of n appends, more than the queue can hold, on its own goroutine.
// release undoes the wedge.
func wedgedSubmit(t *testing.T, f *fixture, n int) (res <-chan submitResult, release func()) {
	t.Helper()
	f.tbl.RLock()
	var once sync.Once
	release = func() { once.Do(f.tbl.RUnlock) }
	t.Cleanup(release)
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i % 16
	}
	out := make(chan submitResult, 1)
	go func() {
		first, last, err := f.ing.Submit(appends(vals...))
		out <- submitResult{first, last, err}
	}()
	return out, release
}

// blockedSubmit is wedgedSubmit that returns once the Submit is blocked
// waiting for space: the writer has taken one batch into its stalled apply
// and the queue behind it is full again.
func blockedSubmit(t *testing.T, f *fixture, n int) (res <-chan submitResult, release func()) {
	t.Helper()
	res, release = wedgedSubmit(t, f, n)
	within(t, 5*time.Second, "waiting for a full queue", func() {
		for {
			st := f.ing.Stats()
			if st.Queued == f.ing.cfg.QueueDepth && st.Submitted > uint64(st.Queued) {
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
	return res, release
}

// TestSubmitBlocksUntilDrained pins blocking backpressure: a Submit larger
// than the queue's free space waits for the writer instead of failing, then
// returns one contiguous sequence range, and every event lands.
func TestSubmitBlocksUntilDrained(t *testing.T) {
	f := newFixture(t, 16, 100, 1, IngestConfig{QueueDepth: 4, BatchSize: 2})
	const n = 11
	res, release := wedgedSubmit(t, f, n)
	select {
	case r := <-res:
		t.Fatalf("Submit returned %+v with the writer wedged and the queue full", r)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	var r submitResult
	select {
	case r = <-res:
	case <-time.After(5 * time.Second):
		t.Fatal("Submit still blocked after the writer resumed")
	}
	if r.err != nil || r.first != 1 || r.last != n {
		t.Fatalf("Submit = [%d,%d] %v, want [1,%d] <nil>", r.first, r.last, r.err, n)
	}
	if err := f.ing.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := f.ds.Len(); got != n {
		t.Fatalf("dataset has %d rows, want %d", got, n)
	}
}

// TestSubmitBlockedLeavesReadersFree pins that a Submit waiting for queue
// space holds no lock the observers need: Stats and SubmittedSeq return,
// and TrySubmit is refused at once rather than queued behind it (it may not
// split the blocked Submit's contiguous range either).
func TestSubmitBlockedLeavesReadersFree(t *testing.T) {
	f := newFixture(t, 16, 100, 1, IngestConfig{QueueDepth: 4, BatchSize: 2})
	res, release := blockedSubmit(t, f, 11)
	var st IngestStats
	within(t, 2*time.Second, "Stats", func() { st = f.ing.Stats() })
	if st.Queued != 4 || st.Processed != 0 {
		t.Fatalf("Stats while blocked = %+v", st)
	}
	var sub uint64
	within(t, 2*time.Second, "SubmittedSeq", func() { sub = f.ing.SubmittedSeq() })
	if sub != st.Submitted {
		t.Fatalf("SubmittedSeq = %d, Stats().Submitted = %d", sub, st.Submitted)
	}
	var err error
	within(t, 2*time.Second, "TrySubmit", func() { _, _, err = f.ing.TrySubmit(appends(1)) })
	var qf *QueueFullError
	if !errors.As(err, &qf) || qf.Batch != 1 || qf.Depth != 4 {
		t.Fatalf("TrySubmit while a Submit is blocked = %v, want *QueueFullError", err)
	}
	release()
	select {
	case r := <-res:
		if r.err != nil || r.first != 1 || r.last != 11 {
			t.Fatalf("Submit = [%d,%d] %v, want [1,11] <nil>", r.first, r.last, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit still blocked after the writer resumed")
	}
}

// TestCloseUnblocksSubmit pins Close against a blocked Submit: the signal
// half returns at once, the Submit reports the partially enqueued range
// wrapping ErrIngestClosed, and that prefix — nothing more — is applied.
func TestCloseUnblocksSubmit(t *testing.T) {
	f := newFixture(t, 16, 100, 1, IngestConfig{QueueDepth: 4, BatchSize: 2})
	const n = 11
	res, release := blockedSubmit(t, f, n)
	var done <-chan struct{}
	within(t, 2*time.Second, "Shutdown", func() { done = f.ing.Shutdown() })
	var r submitResult
	select {
	case r = <-res:
	case <-time.After(2 * time.Second):
		t.Fatal("Submit still blocked after Shutdown")
	}
	if !errors.Is(r.err, ErrIngestClosed) {
		t.Fatalf("Submit after Shutdown: err = %v, want ErrIngestClosed", r.err)
	}
	if r.first != 1 || r.last < r.first || r.last >= n {
		t.Fatalf("partial range [%d,%d], want a proper prefix of [1,%d]", r.first, r.last, n)
	}
	if want := fmt.Sprintf("%d of %d events enqueued (seqs %d-%d)", r.last, n, r.first, r.last); !strings.Contains(r.err.Error(), want) {
		t.Fatalf("partial error %q lacks %q", r.err, want)
	}
	release()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("writer did not drain after Shutdown")
	}
	if got := f.ds.Len(); got != int(r.last) {
		t.Fatalf("dataset has %d rows, want the %d-event prefix", got, r.last)
	}
	if got := f.ing.ProcessedSeq(); got != r.last {
		t.Fatalf("ProcessedSeq = %d, want %d", got, r.last)
	}
}

// TestSubmitTrySubmitHammer mixes blocking Submits larger than the queue
// with small TrySubmits (run under -race in CI): every accepted call gets
// one contiguous range of its own, the ranges tile the sequence space, and
// every accepted event lands.
func TestSubmitTrySubmitHammer(t *testing.T) {
	f := newFixture(t, 16, 100, 1, IngestConfig{QueueDepth: 4, BatchSize: 2, FlushInterval: 50 * time.Microsecond})
	var mu sync.Mutex
	owner := map[uint64]int{} // seq -> accepting goroutine
	claim := func(g int, first, last uint64, n int) {
		mu.Lock()
		defer mu.Unlock()
		if last-first+1 != uint64(n) {
			t.Errorf("goroutine %d: %d events got range [%d,%d]", g, n, first, last)
		}
		for s := first; s <= last; s++ {
			if o, dup := owner[s]; dup {
				t.Errorf("seq %d assigned to goroutines %d and %d", s, o, g)
			}
			owner[s] = g
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if g < 2 {
					evs := appends(1, 2, 3, 4, 5, 6, 7)
					first, last, err := f.ing.Submit(evs)
					if err != nil {
						t.Errorf("Submit: %v", err)
						return
					}
					claim(g, first, last, len(evs))
					continue
				}
				evs := appends(make([]int, 1+i%3)...)
				first, last, err := f.ing.TrySubmit(evs)
				var qf *QueueFullError
				switch {
				case errors.As(err, &qf):
					time.Sleep(10 * time.Microsecond)
				case err != nil:
					t.Errorf("TrySubmit: %v", err)
					return
				default:
					claim(g, first, last, len(evs))
				}
			}
		}()
	}
	wg.Wait()
	if err := f.ing.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	total := uint64(len(owner))
	if got := f.ing.SubmittedSeq(); got != total {
		t.Fatalf("SubmittedSeq = %d, but %d seqs were handed out", got, total)
	}
	if got := f.ds.Len(); got != int(total) {
		t.Fatalf("dataset has %d rows, want %d accepted events", got, total)
	}
}
