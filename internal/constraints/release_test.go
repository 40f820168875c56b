package constraints

import (
	"math"
	"testing"

	"blowfish/internal/domain"
	"blowfish/internal/mechanism"
	"blowfish/internal/noise"
	"blowfish/internal/secgraph"
)

func TestConsistentWithConstraints(t *testing.T) {
	d := domain.MustNew(
		domain.Attribute{Name: "A1", Size: 2},
		domain.Attribute{Name: "A2", Size: 3},
	)
	ds := domain.NewDataset(d)
	for a := 0; a < 2; a++ {
		for b := 0; b < 3; b++ {
			for r := 0; r < 3+2*a+b; r++ {
				ds.MustAdd(d.MustEncode(a, b))
			}
		}
	}
	m, err := NewMarginal(d, []int{0})
	if err != nil {
		t.Fatalf("NewMarginal: %v", err)
	}
	set, err := m.Set(ds)
	if err != nil {
		t.Fatalf("Set: %v", err)
	}
	truth, err := ds.Histogram()
	if err != nil {
		t.Fatalf("Histogram: %v", err)
	}
	// Releases calibrated to the policy-graph bound, as the release engine
	// noises a constrained histogram.
	sens, _, err := HistogramSensitivity(set, secgraph.NewComplete(d))
	if err != nil {
		t.Fatalf("HistogramSensitivity: %v", err)
	}
	lap, err := mechanism.NewLaplace(0.5, sens, noise.NewSource(7))
	if err != nil {
		t.Fatalf("NewLaplace: %v", err)
	}
	const reps = 300
	var rawErr, consErr float64
	for r := 0; r < reps; r++ {
		rel := lap.Release(truth)
		cons, err := ConsistentWithConstraints(set, rel)
		if err != nil {
			t.Fatalf("ConsistentWithConstraints: %v", err)
		}
		// Constraints hold exactly after projection.
		for qi, q := range set.Queries() {
			var got float64
			if err := d.Points(func(p domain.Point) bool {
				if q.Pred(p) {
					got += cons[p]
				}
				return true
			}); err != nil {
				t.Fatalf("Points: %v", err)
			}
			if math.Abs(got-set.Answers()[qi]) > 1e-6 {
				t.Fatalf("constraint %q violated after projection: %v vs %v", q.Name, got, set.Answers()[qi])
			}
		}
		for i := range truth {
			rawErr += (rel[i] - truth[i]) * (rel[i] - truth[i])
			consErr += (cons[i] - truth[i]) * (cons[i] - truth[i])
		}
	}
	if consErr > rawErr {
		t.Fatalf("projection increased error: %v > %v", consErr/reps, rawErr/reps)
	}
}
