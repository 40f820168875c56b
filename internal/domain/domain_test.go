package domain

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name  string
		attrs []Attribute
	}{
		{"empty", nil},
		{"zero size", []Attribute{{Name: "a", Size: 0}}},
		{"negative size", []Attribute{{Name: "a", Size: -3}}},
		{"empty name", []Attribute{{Name: "", Size: 2}}},
		{"duplicate names", []Attribute{{Name: "a", Size: 2}, {Name: "a", Size: 3}}},
		{"overflow", []Attribute{{Name: "a", Size: 1 << 31}, {Name: "b", Size: 1 << 31}, {Name: "c", Size: 4}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.attrs...); err == nil {
				t.Fatalf("New(%v) succeeded, want error", c.attrs)
			}
		})
	}
}

func TestSizeAndStride(t *testing.T) {
	d := MustNew(Attribute{"a", 3}, Attribute{"b", 4}, Attribute{"c", 5})
	if got, want := d.Size(), int64(60); got != want {
		t.Fatalf("Size() = %d, want %d", got, want)
	}
	if got, want := d.NumAttrs(), 3; got != want {
		t.Fatalf("NumAttrs() = %d, want %d", got, want)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := MustNew(Attribute{"a", 3}, Attribute{"b", 4}, Attribute{"c", 5})
	buf := make([]int, 3)
	seen := make(map[Point]bool)
	for a := 0; a < 3; a++ {
		for b := 0; b < 4; b++ {
			for c := 0; c < 5; c++ {
				p, err := d.Encode(a, b, c)
				if err != nil {
					t.Fatalf("Encode(%d,%d,%d): %v", a, b, c, err)
				}
				if seen[p] {
					t.Fatalf("Encode(%d,%d,%d) collides at %d", a, b, c, p)
				}
				seen[p] = true
				buf = d.Decode(p, buf)
				if buf[0] != a || buf[1] != b || buf[2] != c {
					t.Fatalf("Decode(%d) = %v, want [%d %d %d]", p, buf, a, b, c)
				}
				for i, want := range []int{a, b, c} {
					if got := d.Value(p, i); got != want {
						t.Fatalf("Value(%d, %d) = %d, want %d", p, i, got, want)
					}
				}
			}
		}
	}
	if len(seen) != 60 {
		t.Fatalf("encoded %d distinct points, want 60", len(seen))
	}
}

func TestEncodeErrors(t *testing.T) {
	d := MustNew(Attribute{"a", 3}, Attribute{"b", 4})
	if _, err := d.Encode(1); err == nil {
		t.Error("Encode with too few values succeeded")
	}
	if _, err := d.Encode(1, 2, 3); err == nil {
		t.Error("Encode with too many values succeeded")
	}
	if _, err := d.Encode(3, 0); err == nil {
		t.Error("Encode with out-of-range value succeeded")
	}
	if _, err := d.Encode(0, -1); err == nil {
		t.Error("Encode with negative value succeeded")
	}
}

func TestWith(t *testing.T) {
	d := MustNew(Attribute{"a", 3}, Attribute{"b", 4})
	p := d.MustEncode(1, 2)
	q, err := d.With(p, 0, 2)
	if err != nil {
		t.Fatalf("With: %v", err)
	}
	if got, want := q, d.MustEncode(2, 2); got != want {
		t.Fatalf("With changed to %d, want %d", got, want)
	}
	q, err = d.With(p, 1, 0)
	if err != nil {
		t.Fatalf("With: %v", err)
	}
	if got, want := q, d.MustEncode(1, 0); got != want {
		t.Fatalf("With changed to %d, want %d", got, want)
	}
	if _, err := d.With(p, 1, 9); err == nil {
		t.Error("With out-of-range value succeeded")
	}
}

func TestL1Properties(t *testing.T) {
	d := MustNew(Attribute{"a", 5}, Attribute{"b", 7})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		p := Point(rng.Int63n(d.Size()))
		q := Point(rng.Int63n(d.Size()))
		r := Point(rng.Int63n(d.Size()))
		dpq, dqp := d.L1(p, q), d.L1(q, p)
		if dpq != dqp {
			t.Fatalf("L1 not symmetric: %v vs %v", dpq, dqp)
		}
		if (dpq == 0) != (p == q) {
			t.Fatalf("L1(%d,%d)=%v violates identity", p, q, dpq)
		}
		if d.L1(p, r) > dpq+d.L1(q, r) {
			t.Fatalf("triangle inequality violated at %d,%d,%d", p, q, r)
		}
		if dpq > d.Diameter() {
			t.Fatalf("L1(%d,%d)=%v exceeds diameter %v", p, q, dpq, d.Diameter())
		}
		if d.LInf(p, q) > dpq {
			t.Fatalf("LInf exceeds L1 at %d,%d", p, q)
		}
	}
}

func TestL1KnownValues(t *testing.T) {
	d := MustGrid(10, 10)
	p := d.MustEncode(2, 3)
	q := d.MustEncode(7, 1)
	if got, want := d.L1(p, q), 7.0; got != want {
		t.Fatalf("L1 = %v, want %v", got, want)
	}
	if got, want := d.LInf(p, q), 5.0; got != want {
		t.Fatalf("LInf = %v, want %v", got, want)
	}
	if got, want := d.HammingAttrs(p, q), 2; got != want {
		t.Fatalf("HammingAttrs = %d, want %d", got, want)
	}
	if got, want := d.HammingAttrs(p, d.MustEncode(2, 9)), 1; got != want {
		t.Fatalf("HammingAttrs same-x = %d, want %d", got, want)
	}
}

func TestDiameter(t *testing.T) {
	d := MustNew(Attribute{"a", 3}, Attribute{"b", 4}, Attribute{"c", 5})
	if got, want := d.Diameter(), 9.0; got != want {
		t.Fatalf("Diameter = %v, want %v", got, want)
	}
}

func TestPointsIteration(t *testing.T) {
	d := MustNew(Attribute{"a", 4}, Attribute{"b", 3})
	var got []Point
	if err := d.Points(func(p Point) bool { got = append(got, p); return true }); err != nil {
		t.Fatalf("Points: %v", err)
	}
	if len(got) != 12 {
		t.Fatalf("iterated %d points, want 12", len(got))
	}
	for i, p := range got {
		if int64(p) != int64(i) {
			t.Fatalf("point %d = %d, want %d", i, p, i)
		}
	}
	// Early stop.
	n := 0
	if err := d.Points(func(Point) bool { n++; return n < 5 }); err != nil {
		t.Fatalf("Points: %v", err)
	}
	if n != 5 {
		t.Fatalf("early stop iterated %d, want 5", n)
	}
}

func TestAttrIndex(t *testing.T) {
	d := MustNew(Attribute{"lat", 400}, Attribute{"lon", 300})
	if got := d.AttrIndex("lon"); got != 1 {
		t.Fatalf("AttrIndex(lon) = %d, want 1", got)
	}
	if got := d.AttrIndex("missing"); got != -1 {
		t.Fatalf("AttrIndex(missing) = %d, want -1", got)
	}
}

func TestDomainString(t *testing.T) {
	d := MustGrid(400, 300)
	if got, want := d.String(), "x[400] x y[300] (|T|=120000)"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestEqual(t *testing.T) {
	a := MustGrid(4, 3)
	b := MustGrid(4, 3)
	c := MustGrid(3, 4)
	if !a.Equal(b) {
		t.Error("identical domains not Equal")
	}
	if a.Equal(c) {
		t.Error("different domains Equal")
	}
	if a.Equal(nil) {
		t.Error("nil domain Equal")
	}
}

func TestDecodePanicsOutOfRange(t *testing.T) {
	d := MustLine("v", 4)
	defer func() {
		if recover() == nil {
			t.Fatal("Decode of invalid point did not panic")
		}
	}()
	d.Decode(Point(99), nil)
}

// Property: Encode/Decode round-trips for arbitrary valid tuples, and With
// changes exactly one attribute.
func TestEncodeDecodeQuick(t *testing.T) {
	d := MustNew(Attribute{"a", 7}, Attribute{"b", 3}, Attribute{"c", 5})
	f := func(ra, rb, rc uint8, attr uint8, nv uint8) bool {
		a, b, c := int(ra)%7, int(rb)%3, int(rc)%5
		p, err := d.Encode(a, b, c)
		if err != nil {
			return false
		}
		vals := d.Decode(p, nil)
		if vals[0] != a || vals[1] != b || vals[2] != c {
			return false
		}
		i := int(attr) % 3
		sizes := []int{7, 3, 5}
		v := int(nv) % sizes[i]
		q, err := d.With(p, i, v)
		if err != nil {
			return false
		}
		w := d.Decode(q, nil)
		for j := 0; j < 3; j++ {
			want := vals[j]
			if j == i {
				want = v
			}
			if w[j] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
