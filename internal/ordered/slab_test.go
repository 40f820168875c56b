package ordered

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"blowfish/internal/noise"
)

// referenceReleaseWithSplit is the pre-slab implementation of
// ReleaseWithSplit, kept verbatim as a differential oracle: each H-subtree
// allocated its own release via ReleaseInterior. The slab-backed production
// path must consume exactly the same noise draws in the same order — the
// goldens pin the sequential library's bits, so any drift here would move
// every released figure.
func referenceReleaseWithSplit(o *OH, counts []float64, epsS, epsH float64, src *noise.Source) (*OHRelease, error) {
	if len(counts) != o.size {
		return nil, errors.New("size mismatch")
	}
	r := &OHRelease{oh: o, sPrefix: make([]float64, o.k)}
	h := float64(o.height)
	for i, tree := range o.blocks {
		if tree.Size() == 1 {
			r.blocks = append(r.blocks, nil)
			continue
		}
		lo := i * o.theta
		blockCounts := counts[lo : lo+tree.Size()]
		budget := epsH
		if i == 0 {
			budget = epsS + epsH
		}
		scale := 0.0
		if h > 0 {
			if budget <= 0 {
				return nil, errors.New("ordered: H-subtrees need positive budget when θ > 1")
			}
			scale = 2 * h / budget
		}
		rel, err := tree.ReleaseInterior(blockCounts, scale, nil, src)
		if err != nil {
			return nil, err
		}
		r.blocks = append(r.blocks, rel)
	}
	block0Total := 0.0
	for i := 0; i < o.blocks[0].Size(); i++ {
		block0Total += counts[i]
	}
	s1Scale := 0.0
	if o.theta > 1 {
		s1Scale = 2 * math.Max(h, 1) / (epsS + epsH)
	} else {
		if epsS <= 0 {
			return nil, errors.New("ordered: θ=1 requires positive ε_S")
		}
		s1Scale = 1 / epsS
	}
	r.sPrefix[0] = block0Total + src.Laplace(s1Scale)
	if o.k > 1 {
		if epsS <= 0 {
			return nil, errors.New("ordered: multiple S-nodes require positive ε_S")
		}
		prefix := block0Total
		for i := 1; i < o.k; i++ {
			lo := i * o.theta
			for j := lo; j < lo+o.blocks[i].Size(); j++ {
				prefix += counts[j]
			}
			r.sPrefix[i] = prefix + src.Laplace(1/epsS)
		}
	}
	return r, nil
}

// TestReleaseWithSplitMatchesReference pins the slab-backed release to the
// blockwise reference bit for bit across the layout's corner shapes: pure
// ordered (θ=1), pure hierarchical (θ=|T|), ragged and width-1 last blocks,
// and both optimal and explicit budget splits.
func TestReleaseWithSplitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	shapes := []struct {
		size, theta, fanout int
	}{
		{64, 7, 2},
		{64, 1, 2},  // pure ordered: every block is a single node
		{64, 64, 4}, // pure hierarchical: one block
		{49, 8, 3},  // width-1 last block alongside full ones
		{50, 8, 2},  // ragged (width-2) last block
		{5, 2, 2},
	}
	for _, sh := range shapes {
		o, err := NewOH(sh.size, sh.theta, sh.fanout)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]float64, sh.size)
		for i := range counts {
			counts[i] = float64(rng.Intn(30))
		}
		epsS, epsH := o.OptimalSplit(1.5)
		splits := [][2]float64{{epsS, epsH}, {0.9, 0.6}}
		if sh.theta == 1 {
			splits = [][2]float64{{epsS, epsH}, {1.5, 0}}
		}
		for _, split := range splits {
			got, err := o.ReleaseWithSplit(counts, split[0], split[1], noise.NewSource(77))
			if err != nil {
				t.Fatalf("%+v split %v: %v", sh, split, err)
			}
			want, err := referenceReleaseWithSplit(o, counts, split[0], split[1], noise.NewSource(77))
			if err != nil {
				t.Fatalf("%+v split %v reference: %v", sh, split, err)
			}
			for i := range want.sPrefix {
				if got.sPrefix[i] != want.sPrefix[i] {
					t.Fatalf("%+v split %v: sPrefix[%d] = %v, want %v", sh, split, i, got.sPrefix[i], want.sPrefix[i])
				}
			}
			if len(got.blocks) != len(want.blocks) {
				t.Fatalf("%+v: %d released blocks, want %d", sh, len(got.blocks), len(want.blocks))
			}
			for b := range want.blocks {
				if (got.blocks[b] == nil) != (want.blocks[b] == nil) {
					t.Fatalf("%+v block %d: nil mismatch", sh, b)
				}
				if want.blocks[b] == nil {
					continue
				}
				for n := 0; n < o.blocks[b].NodeCount(); n++ {
					if got.blocks[b].Value(n) != want.blocks[b].Value(n) {
						t.Fatalf("%+v block %d node %d value = %v, want %v", sh, b, n, got.blocks[b].Value(n), want.blocks[b].Value(n))
					}
					gv, wv := got.blocks[b].Variance(n), want.blocks[b].Variance(n)
					if gv != wv && !(math.IsInf(gv, 1) && math.IsInf(wv, 1)) {
						t.Fatalf("%+v block %d node %d variance = %v, want %v", sh, b, n, gv, wv)
					}
				}
			}
		}
	}
}

// TestReleasedBlockStorageIsolated guards the slab carving: writing one
// block's released values must never bleed into a neighbor's storage or
// the S-node prefixes.
func TestReleasedBlockStorageIsolated(t *testing.T) {
	o, err := NewOH(40, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, 40)
	for i := range counts {
		counts[i] = 1
	}
	rel, err := o.Release(counts, 1.0, noise.NewSource(8))
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), rel.sPrefix...)
	var blockVals [][]float64
	for _, b := range rel.blocks {
		if b == nil {
			blockVals = append(blockVals, nil)
			continue
		}
		vals := make([]float64, 0)
		for n := 0; n < b.Tree().NodeCount(); n++ {
			vals = append(vals, b.Value(n))
		}
		blockVals = append(blockVals, vals)
	}
	// hierarchy.Released.Consistent copies; mutating one block's released
	// view through the tree API is not possible, so instead re-release into
	// the same OH and confirm the first release's storage is untouched
	// (i.e. the slab is per release, not per layout).
	if _, err := o.Release(counts, 1.0, noise.NewSource(99)); err != nil {
		t.Fatal(err)
	}
	for i, v := range before {
		if rel.sPrefix[i] != v {
			t.Fatalf("sPrefix[%d] changed after a second release", i)
		}
	}
	for bi, b := range rel.blocks {
		if b == nil {
			continue
		}
		for n, v := range blockVals[bi] {
			if b.Value(n) != v {
				t.Fatalf("block %d node %d changed after a second release", bi, n)
			}
		}
	}
}
