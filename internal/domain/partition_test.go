package domain

import (
	"math/rand"
	"testing"
)

func TestUniformGridBlocks(t *testing.T) {
	d := MustGrid(6, 4)
	g, err := NewUniformGrid(d, []int{2, 2})
	if err != nil {
		t.Fatalf("NewUniformGrid: %v", err)
	}
	if got, want := g.NumBlocks(), 6; got != want {
		t.Fatalf("NumBlocks = %d, want %d", got, want)
	}
	// Every point must land in a valid block; points in the same 2x2 cell
	// share a block.
	if err := d.Points(func(p Point) bool {
		b := g.Block(p)
		if b < 0 || b >= g.NumBlocks() {
			t.Fatalf("Block(%d) = %d out of range", p, b)
		}
		return true
	}); err != nil {
		t.Fatalf("Points: %v", err)
	}
	a := d.MustEncode(0, 0)
	b := d.MustEncode(1, 1)
	c := d.MustEncode(2, 0)
	if g.Block(a) != g.Block(b) {
		t.Error("points in same cell got different blocks")
	}
	if g.Block(a) == g.Block(c) {
		t.Error("points in different cells got same block")
	}
}

func TestUniformGridRemainderCells(t *testing.T) {
	d := MustLine("v", 10)
	g, err := NewUniformGrid(d, []int{4})
	if err != nil {
		t.Fatalf("NewUniformGrid: %v", err)
	}
	// ceil(10/4) = 3 cells: [0..3], [4..7], [8..9].
	if got, want := g.NumBlocks(), 3; got != want {
		t.Fatalf("NumBlocks = %d, want %d", got, want)
	}
	if g.Block(Point(3)) != 0 || g.Block(Point(4)) != 1 || g.Block(Point(9)) != 2 {
		t.Fatalf("unexpected block assignment: %d %d %d",
			g.Block(Point(3)), g.Block(Point(4)), g.Block(Point(9)))
	}
}

func TestUniformGridErrors(t *testing.T) {
	d := MustGrid(4, 4)
	if _, err := NewUniformGrid(d, []int{2}); err == nil {
		t.Error("wrong width count succeeded")
	}
	if _, err := NewUniformGrid(d, []int{0, 2}); err == nil {
		t.Error("zero width succeeded")
	}
}

func TestUniformGridByCount(t *testing.T) {
	d := MustGrid(400, 300)
	for _, blocks := range []int{10, 100, 1000, 10000, 120000} {
		g, err := NewUniformGridByCount(d, blocks)
		if err != nil {
			t.Fatalf("NewUniformGridByCount(%d): %v", blocks, err)
		}
		got := g.NumBlocks()
		// The construction rounds to a per-attribute cell count, so allow a
		// factor-4 slack around the request.
		if got < blocks/4 || got > blocks*4 {
			t.Errorf("NewUniformGridByCount(%d) produced %d blocks", blocks, got)
		}
	}
	// At the finest request every cell should be its own block, giving
	// diameter 0 (the partition|120000 exact-clustering case of Fig 1f).
	g, err := NewUniformGridByCount(d, 120000)
	if err != nil {
		t.Fatalf("NewUniformGridByCount: %v", err)
	}
	if g.BlockDiameter() != 0 {
		t.Errorf("finest grid BlockDiameter = %v, want 0", g.BlockDiameter())
	}
	if _, err := NewUniformGridByCount(d, 0); err == nil {
		t.Error("zero block count succeeded")
	}
}

func TestBlockDiameter(t *testing.T) {
	d := MustGrid(6, 4)
	g, err := NewUniformGrid(d, []int{3, 2})
	if err != nil {
		t.Fatalf("NewUniformGrid: %v", err)
	}
	// Cells are 3x2 boxes: diameter (3-1)+(2-1) = 3.
	if got, want := g.BlockDiameter(), 3.0; got != want {
		t.Fatalf("BlockDiameter = %v, want %v", got, want)
	}
	wide, err := NewUniformGrid(d, []int{100, 100})
	if err != nil {
		t.Fatalf("NewUniformGrid: %v", err)
	}
	// One block covering everything: diameter = domain diameter.
	if got, want := wide.BlockDiameter(), d.Diameter(); got != want {
		t.Fatalf("BlockDiameter = %v, want %v", got, want)
	}
}

func TestByBlockFunc(t *testing.T) {
	d := MustLine("v", 10)
	even := func(p Point) int { return int(p) % 2 }
	b, err := NewByBlockFunc(d, 2, even, 0)
	if err != nil {
		t.Fatalf("NewByBlockFunc: %v", err)
	}
	if b.NumBlocks() != 2 {
		t.Fatalf("NumBlocks = %d, want 2", b.NumBlocks())
	}
	if b.Block(Point(4)) != 0 || b.Block(Point(5)) != 1 {
		t.Fatal("block function not applied")
	}
	// Even values span 0..8: bounding-box diameter 8.
	if got, want := b.BlockDiameter(), 8.0; got != want {
		t.Fatalf("BlockDiameter = %v, want %v", got, want)
	}
	if _, err := NewByBlockFunc(d, 1, even, 0); err == nil {
		t.Error("out-of-range block function succeeded")
	}
	if _, err := NewByBlockFunc(d, 0, even, 0); err == nil {
		t.Error("zero blocks succeeded")
	}
}

func TestIdentityPartition(t *testing.T) {
	d := MustLine("v", 8)
	ip, err := Identity(d)
	if err != nil {
		t.Fatalf("Identity: %v", err)
	}
	if ip.NumBlocks() != 8 {
		t.Fatalf("NumBlocks = %d, want 8", ip.NumBlocks())
	}
	if ip.BlockDiameter() != 0 {
		t.Fatalf("BlockDiameter = %v, want 0", ip.BlockDiameter())
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		p := Point(rng.Int63n(d.Size()))
		if ip.Block(p) != int(p) {
			t.Fatalf("Block(%d) = %d", p, ip.Block(p))
		}
	}
}

func TestPartitionBlocksAreExhaustive(t *testing.T) {
	d := MustGrid(9, 7)
	g, err := NewUniformGrid(d, []int{4, 3})
	if err != nil {
		t.Fatalf("NewUniformGrid: %v", err)
	}
	counts := make([]int, g.NumBlocks())
	if err := d.Points(func(p Point) bool { counts[g.Block(p)]++; return true }); err != nil {
		t.Fatalf("Points: %v", err)
	}
	total := 0
	for b, c := range counts {
		if c == 0 {
			t.Errorf("block %d is empty", b)
		}
		total += c
	}
	if int64(total) != d.Size() {
		t.Fatalf("blocks cover %d points, want %d", total, d.Size())
	}
}
