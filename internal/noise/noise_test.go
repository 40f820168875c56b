package noise

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := NewSource(7)
	b := NewSource(7)
	for i := 0; i < 100; i++ {
		if x, y := a.Laplace(1.5), b.Laplace(1.5); x != y {
			t.Fatalf("draw %d diverged: %v vs %v", i, x, y)
		}
	}
	c := NewSource(8)
	same := true
	a2 := NewSource(7)
	for i := 0; i < 10; i++ {
		if a2.Laplace(1) != c.Laplace(1) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestReseedIsPureFunctionOfKeyAndOrdinal pins the keyed derivation: the
// stream depends on (key, ordinal) alone — not on what the Source drew
// before — and a different ordinal or key gives a different stream.
func TestReseedIsPureFunctionOfKeyAndOrdinal(t *testing.T) {
	k := SeedKey(3)
	var fresh, reused Source
	fresh.Reseed(&k, 7)
	reused.Reseed(&k, 1)
	for i := 0; i < 100; i++ {
		reused.Laplace(2) // history that Reseed must erase
	}
	reused.Reseed(&k, 7)
	for i := 0; i < 100; i++ {
		if a, b := fresh.Laplace(1.5), reused.Laplace(1.5); a != b {
			t.Fatalf("draw %d: reseeded stream diverged: %v vs %v", i, a, b)
		}
	}
	differs := func(a, b *Source) bool {
		for i := 0; i < 20; i++ {
			if a.Uniform() != b.Uniform() {
				return true
			}
		}
		return false
	}
	var x, y Source
	x.Reseed(&k, 7)
	y.Reseed(&k, 8)
	if !differs(&x, &y) {
		t.Fatal("adjacent ordinals produced identical streams")
	}
	k2 := SeedKey(4)
	x.Reseed(&k, 7)
	y.Reseed(&k2, 7)
	if !differs(&x, &y) {
		t.Fatal("different keys produced identical streams")
	}
	if SeedKey(3) != k {
		t.Fatal("SeedKey is not deterministic")
	}
}

// TestResourceKey pins the derivation SHA-256(le64(seed) ‖ id): a restart
// re-derives every key from it, so it must never change, and distinct
// seeds or ids must give distinct keys.
func TestResourceKey(t *testing.T) {
	want := sha256.Sum256(append([]byte{1, 0, 0, 0, 0, 0, 0, 0}, "sess-1"...))
	if got := ResourceKey(1, "sess-1"); got != want {
		t.Fatalf("ResourceKey(1, sess-1) = %x, want %x", got, want)
	}
	seen := make(map[Key]string)
	for _, seed := range []int64{0, 1, -1} {
		for _, id := range []string{"", "sess-1", "sess-2", "stream-1", "sess-10"} {
			k := ResourceKey(seed, id)
			name := fmt.Sprint(seed, "/", id)
			if prev, dup := seen[k]; dup {
				t.Fatalf("%s and %s share a key", prev, name)
			}
			seen[k] = name
		}
	}
}

func TestReseedDoesNotAllocate(t *testing.T) {
	k := SeedKey(1)
	var s Source
	s.Reseed(&k, 0)
	ord := uint64(0)
	if n := testing.AllocsPerRun(100, func() {
		ord++
		s.Reseed(&k, ord)
	}); n != 0 {
		t.Fatalf("Reseed allocates %v per call, want 0", n)
	}
}

func TestLaplaceMoments(t *testing.T) {
	const (
		n     = 200000
		scale = 2.0
	)
	s := NewSource(11)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := s.Laplace(scale)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("Laplace mean = %v, want ~0", mean)
	}
	want := 2 * scale * scale // Var = 2b²
	if math.Abs(variance-want)/want > 0.05 {
		t.Errorf("Laplace variance = %v, want ~%v", variance, want)
	}
}

func TestLaplaceSymmetryAndTails(t *testing.T) {
	s := NewSource(13)
	const n = 100000
	pos := 0
	big := 0
	for i := 0; i < n; i++ {
		x := s.Laplace(1)
		if x > 0 {
			pos++
		}
		if math.Abs(x) > 3 { // P(|X|>3) = e^-3 ≈ 0.0498
			big++
		}
	}
	if frac := float64(pos) / n; frac < 0.48 || frac > 0.52 {
		t.Errorf("positive fraction = %v, want ~0.5", frac)
	}
	if frac := float64(big) / n; frac < 0.04 || frac > 0.06 {
		t.Errorf("tail fraction = %v, want ~0.0498", frac)
	}
}

func TestLaplaceZeroScale(t *testing.T) {
	s := NewSource(1)
	for i := 0; i < 10; i++ {
		if got := s.Laplace(0); got != 0 {
			t.Fatalf("Laplace(0) = %v, want 0", got)
		}
	}
}

// scripted is a rand.Source that replays fixed words, then counts up.
type scripted struct {
	words []uint64
	next  uint64
}

func (s *scripted) Uint64() uint64 {
	if len(s.words) > 0 {
		w := s.words[0]
		s.words = s.words[1:]
		return w
	}
	s.next += 1 << 20
	return s.next
}

// TestSkipLaplaceMatchesDraws pins SkipLaplace to the draws it stands
// for: after any mix of draws and skips, the next variate is the one a
// Source that drew every time would give, over a seeded stream and over
// one whose uniforms include zeros, which Laplace redraws.
func TestSkipLaplaceMatchesDraws(t *testing.T) {
	drawn, skipped := NewSource(5), NewSource(5)
	for i := 0; i < 200; i++ {
		n := i % 7
		for j := 0; j < n; j++ {
			drawn.Laplace(0.5 + float64(j))
		}
		skipped.SkipLaplace(n)
		if a, b := drawn.Laplace(3), skipped.Laplace(3); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("round %d: after %d skips the next draw is %v, want %v", i, n, b, a)
		}
	}

	// Float64 turns a zero word into the uniform 0: the first draw
	// consumes three words, the second one.
	zeros := func() *Source {
		s := new(Source)
		s.rng = rand.New(&scripted{words: []uint64{0, 0, 7 << 40, 0, 9 << 40}})
		return s
	}
	drawn, skipped = zeros(), zeros()
	drawn.Laplace(1)
	drawn.Laplace(1)
	skipped.SkipLaplace(2)
	if a, b := drawn.Uniform(), skipped.Uniform(); a != b {
		t.Fatalf("after zero uniforms, skipping left the stream at %v, want %v", b, a)
	}
	skipped.SkipLaplace(0)
	skipped.SkipLaplace(-1)
	if a, b := drawn.Uniform(), skipped.Uniform(); a != b {
		t.Fatalf("SkipLaplace(n <= 0) moved the stream: %v, want %v", b, a)
	}
}

func TestLaplaceInvalidScalePanics(t *testing.T) {
	s := NewSource(1)
	for _, bad := range []float64{-1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Laplace(%v) did not panic", bad)
				}
			}()
			s.Laplace(bad)
		}()
	}
}

func TestTwoSidedGeometricMoments(t *testing.T) {
	const (
		n     = 200000
		scale = 3.0
	)
	s := NewSource(17)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		z := float64(s.TwoSidedGeometric(scale))
		sum += z
		sumSq += z * z
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("geometric mean = %v, want ~0", mean)
	}
	// Var = 2α/(1-α)² for α = e^{-1/scale}.
	alpha := math.Exp(-1 / scale)
	want := 2 * alpha / ((1 - alpha) * (1 - alpha))
	if math.Abs(variance-want)/want > 0.05 {
		t.Errorf("geometric variance = %v, want ~%v", variance, want)
	}
}

func TestTwoSidedGeometricZeroScale(t *testing.T) {
	s := NewSource(1)
	if got := s.TwoSidedGeometric(0); got != 0 {
		t.Fatalf("TwoSidedGeometric(0) = %v, want 0", got)
	}
}

func TestGaussianMoments(t *testing.T) {
	const (
		n     = 200000
		sigma = 1.7
	)
	s := NewSource(19)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := s.Gaussian(sigma)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Gaussian mean = %v, want ~0", mean)
	}
	want := sigma * sigma
	if math.Abs(variance-want)/want > 0.05 {
		t.Errorf("Gaussian variance = %v, want ~%v", variance, want)
	}
}

func TestUniformRange(t *testing.T) {
	s := NewSource(23)
	for i := 0; i < 10000; i++ {
		u := s.Uniform()
		if u < 0 || u >= 1 {
			t.Fatalf("Uniform out of range: %v", u)
		}
	}
}

// The Laplace mechanism's privacy proof needs the density ratio between
// shifted distributions bounded by exp(shift/scale). Empirically check the
// histogram ratio of two shifted samples stays within the bound (allowing
// sampling slack); this is a sanity check of sampler correctness, not a
// privacy proof.
func TestLaplaceDensityRatio(t *testing.T) {
	const (
		n     = 400000
		scale = 1.0
		shift = 1.0
	)
	s := NewSource(29)
	bins := 21
	lo, hi := -5.0, 5.0
	width := (hi - lo) / float64(bins)
	h0 := make([]float64, bins)
	h1 := make([]float64, bins)
	for i := 0; i < n; i++ {
		x := s.Laplace(scale)
		if x >= lo && x < hi {
			h0[int((x-lo)/width)]++
		}
		y := s.Laplace(scale) + shift
		if y >= lo && y < hi {
			h1[int((y-lo)/width)]++
		}
	}
	bound := math.Exp(shift/scale) * 1.35 // generous sampling slack
	for b := 0; b < bins; b++ {
		if h0[b] < 500 || h1[b] < 500 {
			continue // too few samples for a stable ratio
		}
		ratio := h0[b] / h1[b]
		if ratio < 1 {
			ratio = 1 / ratio
		}
		if ratio > bound {
			t.Errorf("bin %d: density ratio %v exceeds bound %v", b, ratio, bound)
		}
	}
}

func TestConvenienceWrappers(t *testing.T) {
	s := NewSource(41)
	for i := 0; i < 100; i++ {
		if v := s.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := s.Int63n(1000); v < 0 || v >= 1000 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
	perm := s.Perm(10)
	seen := make(map[int]bool)
	for _, v := range perm {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", perm)
		}
		seen[v] = true
	}
}

func TestGaussianInvalidSigmaPanics(t *testing.T) {
	s := NewSource(1)
	for _, bad := range []float64{-1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Gaussian(%v) did not panic", bad)
				}
			}()
			s.Gaussian(bad)
		}()
	}
	if s.Gaussian(0) != 0 {
		t.Error("Gaussian(0) not exactly 0")
	}
}

func TestTwoSidedGeometricInvalidScalePanics(t *testing.T) {
	s := NewSource(1)
	defer func() {
		if recover() == nil {
			t.Error("TwoSidedGeometric(-1) did not panic")
		}
	}()
	s.TwoSidedGeometric(-1)
}
