package engine

import (
	"math"
	"testing"

	"blowfish/internal/domain"
	"blowfish/internal/noise"
	"blowfish/internal/policy"
	"blowfish/internal/secgraph"
)

// gridPlan compiles a partitioned-secrets policy over a small grid, giving
// the index a registered partition to maintain block counts for.
func gridPlan(t *testing.T) (*Plan, *domain.Domain, domain.Partition) {
	t.Helper()
	d, err := domain.Grid(12, 9)
	if err != nil {
		t.Fatal(err)
	}
	part, err := domain.NewUniformGrid(d, []int{4, 3})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(policy.New(secgraph.NewPartition(part)))
	if err != nil {
		t.Fatal(err)
	}
	return plan, d, part
}

// linePlan compiles a distance-threshold policy over a line domain, giving
// the index a cumulative histogram to maintain.
func linePlan(t *testing.T, size int) (*Plan, *domain.Domain) {
	t.Helper()
	d, err := domain.Line("v", size)
	if err != nil {
		t.Fatal(err)
	}
	g, err := secgraph.NewDistanceThreshold(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(policy.New(g))
	if err != nil {
		t.Fatal(err)
	}
	return plan, d
}

// apply makes one mutation through ApplyBatch, the index's only mutation
// path.
func apply(idx *DatasetIndex, op MutOp, i int, p domain.Point) error {
	_, err := idx.ApplyBatch([]Mutation{{Op: op, Index: i, P: p}})
	return err
}

// checkAgainstRebuild compares every maintained vector of idx with a
// from-scratch recomputation on the underlying dataset.
func checkAgainstRebuild(t *testing.T, idx *DatasetIndex, part domain.Partition, step int) {
	t.Helper()
	ds := idx.ds
	wantHist, err := ds.Histogram()
	if err != nil {
		t.Fatalf("step %d: Histogram rebuild: %v", step, err)
	}
	gotHist, err := idx.Histogram()
	if err != nil {
		t.Fatalf("step %d: idx.Histogram: %v", step, err)
	}
	for i := range wantHist {
		if gotHist[i] != wantHist[i] {
			t.Fatalf("step %d: hist[%d] = %v, want %v", step, i, gotHist[i], wantHist[i])
		}
	}
	if part != nil {
		wantBlocks, err := ds.PartitionHistogram(part)
		if err != nil {
			t.Fatalf("step %d: PartitionHistogram rebuild: %v", step, err)
		}
		gotBlocks, err := idx.BlockCounts()
		if err != nil {
			t.Fatalf("step %d: idx.BlockCounts: %v", step, err)
		}
		for i := range wantBlocks {
			if gotBlocks[i] != wantBlocks[i] {
				t.Fatalf("step %d: blocks[%d] = %v, want %v", step, i, gotBlocks[i], wantBlocks[i])
			}
		}
	}
	if ds.Domain().NumAttrs() == 1 {
		wantCum, err := ds.CumulativeHistogram()
		if err != nil {
			t.Fatalf("step %d: CumulativeHistogram rebuild: %v", step, err)
		}
		gotCum, n, err := idx.CumulativeAppend(nil)
		if err != nil {
			t.Fatalf("step %d: idx.CumulativeAppend: %v", step, err)
		}
		if n != ds.Len() {
			t.Fatalf("step %d: snapshot n = %d, want %d", step, n, ds.Len())
		}
		for i := range wantCum {
			if gotCum[i] != wantCum[i] {
				t.Fatalf("step %d: cum[%d] = %v, want %v", step, i, gotCum[i], wantCum[i])
			}
		}
	}
}

// indexCases are the plans the index property tests run over: a 2-D grid
// with a registered partition (block counts) and a line (cumulative counts).
var indexCases = []struct {
	name string
	mk   func(t *testing.T) (*Plan, *domain.Domain, domain.Partition)
}{
	{"grid-partition", func(t *testing.T) (*Plan, *domain.Domain, domain.Partition) {
		return gridPlan(t)
	}},
	{"line-cumulative", func(t *testing.T) (*Plan, *domain.Domain, domain.Partition) {
		plan, d := linePlan(t, 37)
		return plan, d, nil
	}},
}

// TestDatasetIndexInterleavedOps drives a seeded random interleaving of
// single add, set and remove mutations through the index and cross-checks
// every maintained vector against a from-scratch rebuild — the property the
// incremental updates must preserve.
func TestDatasetIndexInterleavedOps(t *testing.T) {
	for _, tc := range indexCases {
		t.Run(tc.name, func(t *testing.T) {
			plan, d, part := tc.mk(t)
			ds := domain.NewDataset(d)
			idx, err := plan.Index(ds)
			if err != nil {
				t.Fatal(err)
			}
			rng := noise.NewSource(99)
			randPoint := func() domain.Point { return domain.Point(rng.Int63n(d.Size())) }
			for step := 0; step < 600; step++ {
				switch op := rng.Intn(4); {
				case op == 0 && ds.Len() > 0: // Set
					if err := apply(idx, MutSet, rng.Intn(ds.Len()), randPoint()); err != nil {
						t.Fatalf("step %d: Set: %v", step, err)
					}
				case op == 1 && ds.Len() > 0: // Remove (swap semantics)
					if err := apply(idx, MutRemove, rng.Intn(ds.Len()), 0); err != nil {
						t.Fatalf("step %d: Remove: %v", step, err)
					}
				default: // Add
					if err := apply(idx, MutAdd, 0, randPoint()); err != nil {
						t.Fatalf("step %d: Add: %v", step, err)
					}
				}
				// Check at uneven strides so reads follow runs of one to
				// three mutations, not a fixed pattern.
				if step%7 == 0 || step%3 == 0 {
					checkAgainstRebuild(t, idx, part, step)
				}
			}
			checkAgainstRebuild(t, idx, part, -1)
		})
	}
}

// TestDatasetIndexApplyBatch drives seeded random mutation batches through
// ApplyBatch and cross-checks every maintained vector against a rebuild —
// the same property the per-call mutators satisfy, amortized under one lock.
func TestDatasetIndexApplyBatch(t *testing.T) {
	for _, tc := range indexCases {
		t.Run(tc.name, func(t *testing.T) {
			plan, d, part := tc.mk(t)
			ds := domain.NewDataset(d)
			idx, err := plan.Index(ds)
			if err != nil {
				t.Fatal(err)
			}
			rng := noise.NewSource(7)
			randPoint := func() domain.Point { return domain.Point(rng.Int63n(d.Size())) }
			n := 0 // track length ourselves to build valid batches
			for round := 0; round < 40; round++ {
				batch := make([]Mutation, 0, 32)
				for len(batch) < cap(batch) {
					switch op := rng.Intn(4); {
					case op == 0 && n > 0:
						batch = append(batch, Mutation{Op: MutSet, Index: rng.Intn(n), P: randPoint()})
					case op == 1 && n > 0:
						batch = append(batch, Mutation{Op: MutRemove, Index: rng.Intn(n)})
						n--
					default:
						batch = append(batch, Mutation{Op: MutAdd, P: randPoint()})
						n++
					}
				}
				applied, err := idx.ApplyBatch(batch)
				if err != nil {
					t.Fatalf("round %d: ApplyBatch: %v", round, err)
				}
				if applied != len(batch) {
					t.Fatalf("round %d: applied = %d, want %d", round, applied, len(batch))
				}
				checkAgainstRebuild(t, idx, part, round)
			}
		})
	}
}

// TestDatasetIndexApplyBatchPartialFailure asserts a failing mutation stops
// the batch, reports its position, and leaves the caches consistent with
// the prefix that did apply.
func TestDatasetIndexApplyBatchPartialFailure(t *testing.T) {
	plan, d := linePlan(t, 8)
	ds := domain.NewDataset(d)
	idx, err := plan.Index(ds)
	if err != nil {
		t.Fatal(err)
	}
	batch := []Mutation{
		{Op: MutAdd, P: 1},
		{Op: MutAdd, P: 2},
		{Op: MutSet, Index: 9, P: 3}, // out of range
		{Op: MutAdd, P: 4},
	}
	applied, err := idx.ApplyBatch(batch)
	if err == nil {
		t.Fatal("out-of-range Set accepted")
	}
	if applied != 2 {
		t.Fatalf("applied = %d, want 2", applied)
	}
	if ds.Len() != 2 {
		t.Fatalf("dataset len = %d, want 2", ds.Len())
	}
	checkAgainstRebuild(t, idx, nil, 0)
}

// TestDatasetIndexDetectsDirectMutation mutates the dataset behind the
// index's back and asserts the generation counter forces a rebuild instead
// of serving stale counts.
func TestDatasetIndexDetectsDirectMutation(t *testing.T) {
	plan, d := linePlan(t, 16)
	ds := domain.NewDataset(d)
	for i := 0; i < 8; i++ {
		ds.MustAdd(domain.Point(i))
	}
	idx, err := plan.Index(ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Histogram(); err != nil { // prime the caches
		t.Fatal(err)
	}
	// Bypass the index: direct Add, Set and Remove on the dataset.
	ds.MustAdd(domain.Point(3))
	if err := ds.Set(0, domain.Point(15)); err != nil {
		t.Fatal(err)
	}
	if err := ds.Remove(1); err != nil {
		t.Fatal(err)
	}
	checkAgainstRebuild(t, idx, nil, 0)
}

// TestDatasetIndexInvalidOps asserts invalid mutations error without
// corrupting the maintained counts.
func TestDatasetIndexInvalidOps(t *testing.T) {
	plan, d := linePlan(t, 8)
	ds := domain.NewDataset(d)
	ds.MustAdd(2)
	idx, err := plan.Index(ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := apply(idx, MutAdd, 0, domain.Point(99)); err == nil {
		t.Error("out-of-domain Add accepted")
	}
	if err := apply(idx, MutSet, 5, 1); err == nil {
		t.Error("out-of-range Set accepted")
	}
	if err := apply(idx, MutSet, 0, domain.Point(-1)); err == nil {
		t.Error("out-of-domain Set accepted")
	}
	if err := apply(idx, MutRemove, 7, 0); err == nil {
		t.Error("out-of-range Remove accepted")
	}
	checkAgainstRebuild(t, idx, nil, 0)
}

// TestPlanIndexSharingAndForget pins the index cache contract: one index
// per dataset, domain mismatches rejected, Forget drops the entry.
func TestPlanIndexSharingAndForget(t *testing.T) {
	plan, d := linePlan(t, 8)
	ds := domain.NewDataset(d)
	a, err := plan.Index(ds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plan.Index(ds)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Index did not share the cached index")
	}
	plan.Forget(ds)
	c, err := plan.Index(ds)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("Forget did not drop the cached index")
	}
	other := domain.MustLine("w", 9)
	if _, err := plan.Index(domain.NewDataset(other)); err == nil {
		t.Error("foreign-domain dataset accepted")
	}
}

// TestVectorsCacheInvalidation asserts the k-means vector cache tracks
// mutations.
func TestVectorsCacheInvalidation(t *testing.T) {
	plan, _, _ := gridPlan(t)
	ds := domain.NewDataset(plan.Domain())
	ds.MustAdd(plan.Domain().MustEncode(1, 2))
	idx, err := plan.Index(ds)
	if err != nil {
		t.Fatal(err)
	}
	v1 := idx.Vectors()
	if len(v1) != 1 || v1[0][0] != 1 || v1[0][1] != 2 {
		t.Fatalf("Vectors = %v", v1)
	}
	if idx.Vectors()[0][0] != 1 {
		t.Fatal("cached vectors wrong")
	}
	if err := apply(idx, MutSet, 0, plan.Domain().MustEncode(5, 7)); err != nil {
		t.Fatal(err)
	}
	v2 := idx.Vectors()
	if v2[0][0] != 5 || v2[0][1] != 7 {
		t.Fatalf("Vectors after Set = %v", v2)
	}
	if math.IsNaN(v2[0][0]) {
		t.Fatal("unreachable")
	}
}
