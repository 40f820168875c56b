package domain

import (
	"errors"
	"fmt"
)

// Partition divides a domain into disjoint blocks covering every value. It
// is the P = {P1,...,Pp} object behind the partitioned secret specification
// S^P (Eq. 6) and behind coarse histogram queries h_P.
type Partition interface {
	// Domain returns the partitioned domain.
	Domain() *Domain
	// NumBlocks returns the number of blocks p.
	NumBlocks() int
	// Block returns the block index in [0, NumBlocks()) containing p.
	Block(p Point) int
	// BlockDiameter returns the largest L1 distance between two points in
	// any single block: max_j d(Pj). It bounds the k-means qsum sensitivity
	// under S^P (Lemma 6.1). Implementations may return an upper bound when
	// the exact diameter is expensive; the built-in partitions are exact.
	BlockDiameter() float64
}

// UniformGrid partitions a domain by dividing each attribute's range into
// equal-width cells (the last cell absorbs the remainder). It reproduces the
// "uniformly divided 300x400 grid" partitions of Figure 1(f).
type UniformGrid struct {
	dom *Domain
	// width[i] is the cell width along attribute i.
	width []int
	// cells[i] is the number of cells along attribute i.
	cells []int
	total int
}

var _ Partition = (*UniformGrid)(nil)

// NewUniformGrid builds a uniform grid partition with the given per-attribute
// cell widths. A width of w along an attribute of size s yields ceil(s/w)
// cells.
func NewUniformGrid(d *Domain, widths []int) (*UniformGrid, error) {
	if len(widths) != d.NumAttrs() {
		return nil, fmt.Errorf("domain: NewUniformGrid got %d widths for %d attributes", len(widths), d.NumAttrs())
	}
	g := &UniformGrid{dom: d, width: append([]int(nil), widths...), cells: make([]int, len(widths)), total: 1}
	for i, w := range widths {
		if w <= 0 {
			return nil, fmt.Errorf("domain: non-positive cell width %d for attribute %q", w, d.Attr(i).Name)
		}
		n := (d.Attr(i).Size + w - 1) / w
		g.cells[i] = n
		g.total *= n
	}
	return g, nil
}

// NewUniformGridByCount builds a uniform grid with approximately the given
// total number of blocks, preserving the domain's aspect ratio: the number
// of cells along attribute i is round(size_i * f) for the scale factor
// f = (blocks/|T|)^(1/m). Requesting blocks = |T| yields the finest grid
// (every value its own block, diameter 0). Used to reproduce the
// partition|10, partition|100, ... series of Figure 1(f).
func NewUniformGridByCount(d *Domain, blocks int) (*UniformGrid, error) {
	if blocks <= 0 {
		return nil, errors.New("domain: non-positive block count")
	}
	m := d.NumAttrs()
	f := root(float64(blocks)/float64(d.Size()), m)
	widths := make([]int, m)
	for i := 0; i < m; i++ {
		size := d.Attr(i).Size
		cells := int(float64(size)*f + 0.5)
		if cells < 1 {
			cells = 1
		}
		if cells > size {
			cells = size
		}
		widths[i] = (size + cells - 1) / cells
	}
	return NewUniformGrid(d, widths)
}

// root computes x^(1/n) for x in (0, 1] via Newton iteration; partition
// scale factors never exceed 1.
func root(x float64, n int) float64 {
	if n == 1 || x == 0 {
		return x
	}
	guess := 1.0
	for i := 0; i < 128; i++ {
		p := 1.0
		for j := 0; j < n-1; j++ {
			p *= guess
		}
		next := ((float64(n)-1)*guess + x/p) / float64(n)
		if diff := next - guess; diff < 1e-13 && diff > -1e-13 {
			return next
		}
		guess = next
	}
	return guess
}

// Domain implements Partition.
func (g *UniformGrid) Domain() *Domain { return g.dom }

// NumBlocks implements Partition.
func (g *UniformGrid) NumBlocks() int { return g.total }

// Block implements Partition.
func (g *UniformGrid) Block(p Point) int {
	block := 0
	for i := 0; i < g.dom.NumAttrs(); i++ {
		c := g.dom.Value(p, i) / g.width[i]
		block = block*g.cells[i] + c
	}
	return block
}

// BlockDiameter implements Partition. For a uniform grid every block is a
// box of per-attribute extent min(width, size) so the diameter is the sum
// of (extent-1) over attributes.
func (g *UniformGrid) BlockDiameter() float64 {
	var sum int
	for i := 0; i < g.dom.NumAttrs(); i++ {
		ext := g.width[i]
		if s := g.dom.Attr(i).Size; ext > s {
			ext = s
		}
		sum += ext - 1
	}
	return float64(sum)
}

// ByBlockFunc is a partition defined by an arbitrary block function. The
// block diameter is computed eagerly for small domains and must be supplied
// for large ones.
type ByBlockFunc struct {
	dom      *Domain
	blocks   int
	fn       func(Point) int
	diameter float64
}

var _ Partition = (*ByBlockFunc)(nil)

// NewByBlockFunc wraps fn as a Partition. For domains within
// MaxMaterializedSize the constructor validates that fn maps every point
// into [0, blocks) and computes the exact block diameter; for larger domains
// the caller must pass a correct diameter upper bound.
func NewByBlockFunc(d *Domain, blocks int, fn func(Point) int, diameterHint float64) (*ByBlockFunc, error) {
	if blocks <= 0 {
		return nil, errors.New("domain: non-positive block count")
	}
	b := &ByBlockFunc{dom: d, blocks: blocks, fn: fn, diameter: diameterHint}
	if d.Size() <= MaxMaterializedSize {
		// Exact diameter by per-block extent tracking (per-attribute
		// bounding boxes bound the L1 diameter of a block from above, and
		// for boxes the bound is tight).
		mins := make([][]int, blocks)
		maxs := make([][]int, blocks)
		m := d.NumAttrs()
		err := d.Points(func(p Point) bool {
			blk := fn(p)
			if blk < 0 || blk >= blocks {
				b.blocks = -1 // signal error
				return false
			}
			if mins[blk] == nil {
				mins[blk] = make([]int, m)
				maxs[blk] = make([]int, m)
				for i := 0; i < m; i++ {
					v := d.Value(p, i)
					mins[blk][i], maxs[blk][i] = v, v
				}
				return true
			}
			for i := 0; i < m; i++ {
				v := d.Value(p, i)
				if v < mins[blk][i] {
					mins[blk][i] = v
				}
				if v > maxs[blk][i] {
					maxs[blk][i] = v
				}
			}
			return true
		})
		if err != nil {
			return nil, err
		}
		if b.blocks == -1 {
			return nil, fmt.Errorf("domain: block function out of range [0,%d)", blocks)
		}
		best := 0.0
		for blk := 0; blk < blocks; blk++ {
			if mins[blk] == nil {
				continue
			}
			ext := 0
			for i := 0; i < m; i++ {
				ext += maxs[blk][i] - mins[blk][i]
			}
			if float64(ext) > best {
				best = float64(ext)
			}
		}
		b.diameter = best
	}
	return b, nil
}

// Domain implements Partition.
func (b *ByBlockFunc) Domain() *Domain { return b.dom }

// NumBlocks implements Partition.
func (b *ByBlockFunc) NumBlocks() int { return b.blocks }

// Block implements Partition.
func (b *ByBlockFunc) Block(p Point) int { return b.fn(p) }

// BlockDiameter implements Partition.
func (b *ByBlockFunc) BlockDiameter() float64 { return b.diameter }

// Identity returns the finest partition: every domain value is its own
// block. Under S^P with this partition nothing is secret and histograms can
// be released exactly (sensitivity 0).
func Identity(d *Domain) (Partition, error) {
	if d.Size() > MaxMaterializedSize {
		return nil, ErrDomainTooLarge
	}
	return &identityPartition{d}, nil
}

type identityPartition struct{ dom *Domain }

func (ip *identityPartition) Domain() *Domain        { return ip.dom }
func (ip *identityPartition) NumBlocks() int         { return int(ip.dom.Size()) }
func (ip *identityPartition) Block(p Point) int      { return int(p) }
func (ip *identityPartition) BlockDiameter() float64 { return 0 }
