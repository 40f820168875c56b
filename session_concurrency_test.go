package blowfish_test

import (
	"errors"
	"math"
	"sync"
	"testing"

	"blowfish"
)

// TestSessionConcurrentBudgetAccounting hammers a single Session from many
// goroutines and asserts the Accountant's invariants hold under the race
// detector: the cumulative spend never exceeds the total ε, exactly
// budget/eps releases succeed, and the release log length matches the
// number of successes (no torn or duplicated ledger entries).
func TestSessionConcurrentBudgetAccounting(t *testing.T) {
	dom, err := blowfish.LineDomain("v", 128)
	if err != nil {
		t.Fatal(err)
	}
	g, err := blowfish.DistanceThreshold(dom, 8)
	if err != nil {
		t.Fatal(err)
	}
	pol := blowfish.NewPolicy(g)
	ds := blowfish.NewDataset(dom)
	for i := 0; i < 256; i++ {
		ds.MustAdd(blowfish.Point(i % 128))
	}

	const (
		budget     = 1.0
		eps        = 0.02 // exactly 50 releases fit
		goroutines = 16
		perG       = 8 // 128 attempts, at most 50 can succeed
	)
	sess, err := blowfish.NewSession(pol, budget, blowfish.NewSource(1))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	successes, refused := 0, 0
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var err error
				// Mix workloads so different release paths contend on the
				// same source lock and accountant.
				switch (g + i) % 3 {
				case 0:
					_, err = sess.ReleaseHistogram(ds, eps)
				case 1:
					_, err = sess.ReleaseCumulativeHistogram(ds, eps)
				default:
					_, err = sess.NewRangeReleaser(ds, 16, eps)
				}
				mu.Lock()
				switch {
				case err == nil:
					successes++
				case errors.Is(err, blowfish.ErrBudgetExceeded):
					refused++
				default:
					t.Errorf("unexpected release error: %v", err)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	acct := sess.Accountant()
	if acct.Spent() > budget+1e-9 {
		t.Fatalf("accountant overspent: %v > %v", acct.Spent(), budget)
	}
	if want := int(math.Round(budget / eps)); successes != want {
		t.Fatalf("successes = %d, want %d", successes, want)
	}
	if successes+refused != goroutines*perG {
		t.Fatalf("accounted %d attempts, want %d", successes+refused, goroutines*perG)
	}
	log := acct.Releases()
	if len(log) != successes {
		t.Fatalf("release log has %d entries, want %d", len(log), successes)
	}
	var total float64
	for _, rel := range log {
		if rel.Epsilon != eps {
			t.Fatalf("ledger entry with epsilon %v, want %v", rel.Epsilon, eps)
		}
		total += rel.Epsilon
	}
	if math.Abs(total-acct.Spent()) > 1e-9 {
		t.Fatalf("ledger sum %v disagrees with Spent() %v", total, acct.Spent())
	}
}

// TestKeyedRangeAnswersConcurrent runs the served range path from many
// goroutines on one keyed session, each release noising into a pooled
// partial release, and checks that the answers are exactly those of the
// same ordinals drawn one at a time: a release that read another's pooled
// storage would change an answer.
func TestKeyedRangeAnswersConcurrent(t *testing.T) {
	dom, err := blowfish.LineDomain("v", 1024)
	if err != nil {
		t.Fatal(err)
	}
	g, err := blowfish.DistanceThreshold(dom, 16)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := blowfish.Compile(blowfish.NewPolicy(g))
	if err != nil {
		t.Fatal(err)
	}
	ds := blowfish.NewDataset(dom)
	for i := 0; i < 2000; i++ {
		ds.MustAdd(blowfish.Point(i * 37 % 1024))
	}
	const (
		goroutines = 8
		perG       = 16
	)
	queries := []blowfish.RangeQuery{{Lo: 5, Hi: 700}, {Lo: 0, Hi: 1023}, {Lo: 300, Hi: 310}}
	key := blowfish.SeedKey(9)
	sess, err := cp.NewKeyedSession(100, key)
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		got = map[[3]float64]int{}
	)
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perG {
				a, err := sess.ReleaseRangeAnswers(ds, 16, 0.01, queries)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				got[[3]float64(a)]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	ref, err := cp.NewKeyedSession(100, key)
	if err != nil {
		t.Fatal(err)
	}
	for range goroutines * perG {
		a, err := ref.ReleaseRangeAnswers(ds, 16, 0.01, queries)
		if err != nil {
			t.Fatal(err)
		}
		if got[[3]float64(a)] == 0 {
			t.Fatalf("serial answers %v were not among the concurrent ones", a)
		}
		got[[3]float64(a)]--
	}
}
