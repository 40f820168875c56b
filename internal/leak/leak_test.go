package leak

import (
	"strings"
	"testing"
	"time"
)

// spin parks a goroutine with a blowfish frame on its stack (this test
// package is blowfish/internal/leak, so any function here qualifies).
func spin(quit chan struct{}) {
	<-quit
}

func TestSnapshotSeesOwnGoroutines(t *testing.T) {
	base := Snapshot()
	quit := make(chan struct{})
	go spin(quit)
	// The goroutine may not be scheduled yet; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if len(Leaked(base)) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Snapshot never observed the spawned module goroutine")
		}
		time.Sleep(time.Millisecond)
	}
	close(quit)
	if left := Await(base, 2*time.Second); len(left) != 0 {
		t.Fatalf("goroutine still reported leaked after exit: %+v", left)
	}
}

func TestParseGoroutine(t *testing.T) {
	rec := "goroutine 42 [chan receive]:\nblowfish/internal/stream.(*Stream).run(0xc000010000)\n\t/src/stream.go:100 +0x20"
	g, ok := parseGoroutine(rec)
	if !ok {
		t.Fatal("parseGoroutine rejected a valid record")
	}
	if g.ID != 42 || g.State != "chan receive" {
		t.Fatalf("parsed %+v", g)
	}
	if !ownedByModule(g.Stack) {
		t.Fatal("blowfish frame not recognized as module-owned")
	}
	if _, ok := parseGoroutine("not a goroutine record"); ok {
		t.Fatal("parseGoroutine accepted garbage")
	}
	httpRec := "goroutine 7 [IO wait]:\nnet/http.(*persistConn).readLoop(0xc0001a2000)\n\t/usr/lib/go/src/net/http/transport.go:2218 +0x4a"
	if g, ok := parseGoroutine(httpRec); !ok {
		t.Fatal("parseGoroutine rejected the http record")
	} else if ownedByModule(g.Stack) {
		t.Fatal("net/http goroutine misclassified as module-owned")
	}
}

// fakeT captures Errorf calls so the failure path is testable without
// failing this test.
type fakeT struct {
	cleanups []func()
	errors   []string
}

func (f *fakeT) Helper()           {}
func (f *fakeT) Cleanup(fn func()) { f.cleanups = append(f.cleanups, fn) }
func (f *fakeT) Errorf(format string, args ...any) {
	f.errors = append(f.errors, format)
}

func TestCheckReportsLeak(t *testing.T) {
	ft := &fakeT{}
	verify := Check(ft)
	quit := make(chan struct{})
	base := Snapshot()
	go spin(quit)
	// Let the goroutine get on the stack dump before verifying.
	for i := 0; i < 2000 && len(Leaked(base)) == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	// Shorten the wait by closing quit *after* verify observes the leak is
	// not instantaneous — instead run verify with the goroutine parked; it
	// waits its 2s grace then reports.
	verify()
	close(quit)
	if len(ft.errors) != 1 || !strings.Contains(ft.errors[0], "goroutine") {
		t.Fatalf("Check did not report the leak: %v", ft.errors)
	}
	// The registered cleanup must be idempotent after the direct call.
	for _, fn := range ft.cleanups {
		fn()
	}
	if len(ft.errors) != 1 {
		t.Fatalf("cleanup re-reported: %v", ft.errors)
	}
}

func TestCheckCleanPass(t *testing.T) {
	ft := &fakeT{}
	Check(ft)
	quit := make(chan struct{})
	go spin(quit)
	close(quit)
	for _, fn := range ft.cleanups {
		fn()
	}
	if len(ft.errors) != 0 {
		t.Fatalf("clean run reported a leak: %v", ft.errors)
	}
}
