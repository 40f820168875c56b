// Package domain models the discrete multi-dimensional data domains that
// Blowfish policies are defined over.
//
// A domain T = A1 x A2 x ... x Am is the cross product of m categorical
// attributes (Section 2 of the paper). Values in the domain are represented
// compactly as Point indexes in [0, Size()) using mixed-radix encoding, so
// very large domains (e.g. the 256^3 RGB domain of the skin-segmentation
// experiments) never need to be materialized.
package domain

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Point is the dense index of a domain value. Points are only meaningful
// relative to the Domain that produced them.
type Point int64

// Attribute is one categorical dimension of a domain. Values of the
// attribute are the integers 0..Size-1; for ordinal attributes the integer
// order is the attribute order (used by L1 distances and ordered-domain
// mechanisms).
type Attribute struct {
	// Name identifies the attribute in diagnostics and query predicates.
	Name string
	// Size is the number of distinct attribute values; must be >= 1.
	Size int
}

// Domain is an immutable cross product of attributes.
//
// The zero value is not usable; construct domains with New, Line or Grid.
type Domain struct {
	attrs []Attribute
	// stride[i] is the multiplier of attribute i in the mixed-radix
	// encoding; attribute 0 is the most significant.
	stride []int64
	size   int64
}

// MaxMaterializedSize bounds the domain sizes for which the library will
// allocate per-value structures (full histograms, explicit graphs). Larger
// domains remain usable through implicit representations.
const MaxMaterializedSize = 1 << 26

var (
	// ErrDomainTooLarge is returned by operations that would materialize a
	// per-value structure over a domain larger than MaxMaterializedSize.
	ErrDomainTooLarge = errors.New("domain: domain too large to materialize")
	// ErrPointOutOfRange is returned when a Point does not belong to the
	// domain it is used with.
	ErrPointOutOfRange = errors.New("domain: point out of range")
)

// New constructs a domain from the given attributes. It returns an error if
// no attributes are supplied, an attribute has a non-positive size, names
// collide, or the total size overflows int64.
func New(attrs ...Attribute) (*Domain, error) {
	if len(attrs) == 0 {
		return nil, errors.New("domain: need at least one attribute")
	}
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if a.Size <= 0 {
			return nil, fmt.Errorf("domain: attribute %q has non-positive size %d", a.Name, a.Size)
		}
		if a.Name == "" {
			return nil, errors.New("domain: attribute with empty name")
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("domain: duplicate attribute name %q", a.Name)
		}
		seen[a.Name] = true
	}
	d := &Domain{
		attrs:  append([]Attribute(nil), attrs...),
		stride: make([]int64, len(attrs)),
	}
	size := int64(1)
	for i := len(attrs) - 1; i >= 0; i-- {
		d.stride[i] = size
		s := int64(attrs[i].Size)
		if size > math.MaxInt64/s {
			return nil, fmt.Errorf("domain: size overflow at attribute %q", attrs[i].Name)
		}
		size *= s
	}
	d.size = size
	return d, nil
}

// MustNew is New but panics on error. Intended for statically known domains
// in tests and examples.
func MustNew(attrs ...Attribute) *Domain {
	d, err := New(attrs...)
	if err != nil {
		panic(err)
	}
	return d
}

// Line constructs a one-dimensional totally ordered domain of the given
// size, as used by the cumulative histogram and range query workloads.
func Line(name string, size int) (*Domain, error) {
	return New(Attribute{Name: name, Size: size})
}

// MustLine is Line but panics on error.
func MustLine(name string, size int) *Domain {
	d, err := Line(name, size)
	if err != nil {
		panic(err)
	}
	return d
}

// Grid constructs a two-dimensional domain of the given width and height,
// e.g. the 400x300 location grid of the twitter experiments. Attribute 0 is
// "x" (width), attribute 1 is "y" (height).
func Grid(width, height int) (*Domain, error) {
	return New(Attribute{Name: "x", Size: width}, Attribute{Name: "y", Size: height})
}

// MustGrid is Grid but panics on error.
func MustGrid(width, height int) *Domain {
	d, err := Grid(width, height)
	if err != nil {
		panic(err)
	}
	return d
}

// Size returns the number of values in the domain, |T|.
func (d *Domain) Size() int64 { return d.size }

// NumAttrs returns the number of attributes m.
func (d *Domain) NumAttrs() int { return len(d.attrs) }

// Attr returns the i-th attribute.
func (d *Domain) Attr(i int) Attribute { return d.attrs[i] }

// AttrIndex returns the index of the attribute with the given name, or -1.
func (d *Domain) AttrIndex(name string) int {
	for i, a := range d.attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Contains reports whether p is a valid point of the domain.
func (d *Domain) Contains(p Point) bool { return p >= 0 && int64(p) < d.size }

// Encode maps per-attribute values to a Point. It returns an error if the
// number of values or any value is out of range.
func (d *Domain) Encode(vals ...int) (Point, error) {
	if len(vals) != len(d.attrs) {
		return 0, fmt.Errorf("domain: Encode got %d values for %d attributes", len(vals), len(d.attrs))
	}
	var p int64
	for i, v := range vals {
		if v < 0 || v >= d.attrs[i].Size {
			return 0, fmt.Errorf("domain: attribute %q value %d out of range [0,%d)", d.attrs[i].Name, v, d.attrs[i].Size)
		}
		p += int64(v) * d.stride[i]
	}
	return Point(p), nil
}

// MustEncode is Encode but panics on error.
func (d *Domain) MustEncode(vals ...int) Point {
	p, err := d.Encode(vals...)
	if err != nil {
		panic(err)
	}
	return p
}

// Decode expands a Point into per-attribute values. If dst has capacity it
// is reused, otherwise a new slice is allocated. Decode panics if p is not
// in the domain; use Contains to validate untrusted points.
func (d *Domain) Decode(p Point, dst []int) []int {
	if !d.Contains(p) {
		panic(fmt.Sprintf("domain: Decode of out-of-range point %d (size %d)", p, d.size))
	}
	if cap(dst) < len(d.attrs) {
		dst = make([]int, len(d.attrs))
	}
	dst = dst[:len(d.attrs)]
	rem := int64(p)
	for i := range d.attrs {
		dst[i] = int(rem / d.stride[i])
		rem %= d.stride[i]
	}
	return dst
}

// Value returns the value of attribute i at point p without decoding the
// full tuple.
func (d *Domain) Value(p Point, i int) int {
	if !d.Contains(p) {
		panic(fmt.Sprintf("domain: Value of out-of-range point %d (size %d)", p, d.size))
	}
	return int(int64(p) / d.stride[i] % int64(d.attrs[i].Size))
}

// With returns the point obtained from p by setting attribute i to v.
func (d *Domain) With(p Point, i, v int) (Point, error) {
	if !d.Contains(p) {
		return 0, ErrPointOutOfRange
	}
	if v < 0 || v >= d.attrs[i].Size {
		return 0, fmt.Errorf("domain: attribute %q value %d out of range [0,%d)", d.attrs[i].Name, v, d.attrs[i].Size)
	}
	old := int64(p) / d.stride[i] % int64(d.attrs[i].Size)
	return p + Point((int64(v)-old)*d.stride[i]), nil
}

// L1 returns the Manhattan distance between two points: the sum over
// attributes of absolute index differences. This is the metric d(.,.) used
// by the distance-threshold secret specification S^{d,θ}.
func (d *Domain) L1(p, q Point) float64 {
	var sum int64
	pp, qq := int64(p), int64(q)
	for i := range d.attrs {
		s := int64(d.attrs[i].Size)
		pv := pp / d.stride[i] % s
		qv := qq / d.stride[i] % s
		if pv > qv {
			sum += pv - qv
		} else {
			sum += qv - pv
		}
	}
	return float64(sum)
}

// LInf returns the Chebyshev distance between two points.
func (d *Domain) LInf(p, q Point) float64 {
	var best int64
	pp, qq := int64(p), int64(q)
	for i := range d.attrs {
		s := int64(d.attrs[i].Size)
		pv := pp / d.stride[i] % s
		qv := qq / d.stride[i] % s
		diff := pv - qv
		if diff < 0 {
			diff = -diff
		}
		if diff > best {
			best = diff
		}
	}
	return float64(best)
}

// HammingAttrs returns the number of attributes on which p and q differ —
// the hop distance of the attribute secret graph G^attr.
func (d *Domain) HammingAttrs(p, q Point) int {
	n := 0
	pp, qq := int64(p), int64(q)
	for i := range d.attrs {
		s := int64(d.attrs[i].Size)
		if pp/d.stride[i]%s != qq/d.stride[i]%s {
			n++
		}
	}
	return n
}

// Diameter returns the largest L1 distance between any two domain points:
// d(T) = sum_i (|Ai| - 1). Used by the k-means qsum sensitivity (Sec. 6).
func (d *Domain) Diameter() float64 {
	var sum int64
	for _, a := range d.attrs {
		sum += int64(a.Size - 1)
	}
	return float64(sum)
}

// Points iterates all domain values in index order, calling fn for each.
// It returns ErrDomainTooLarge for domains above MaxMaterializedSize.
// Iteration stops early if fn returns false.
func (d *Domain) Points(fn func(Point) bool) error {
	if d.size > MaxMaterializedSize {
		return ErrDomainTooLarge
	}
	for p := int64(0); p < d.size; p++ {
		if !fn(Point(p)) {
			return nil
		}
	}
	return nil
}

// String renders the domain shape, e.g. "x[400] x y[300] (|T|=120000)".
func (d *Domain) String() string {
	var b strings.Builder
	for i, a := range d.attrs {
		if i > 0 {
			b.WriteString(" x ")
		}
		fmt.Fprintf(&b, "%s[%d]", a.Name, a.Size)
	}
	fmt.Fprintf(&b, " (|T|=%d)", d.size)
	return b.String()
}

// Equal reports whether two domains have identical attribute lists.
func (d *Domain) Equal(o *Domain) bool {
	if d == o {
		return true
	}
	if o == nil || len(d.attrs) != len(o.attrs) {
		return false
	}
	for i := range d.attrs {
		if d.attrs[i] != o.attrs[i] {
			return false
		}
	}
	return true
}
