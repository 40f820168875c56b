package constraints

import (
	"blowfish/internal/domain"
	"blowfish/internal/infer"
)

// ConsistentWithConstraints post-processes a released histogram so that
// every constraint query evaluates exactly to its public answer, via least
// squares projection. Because the true histogram satisfies the constraints,
// projection can only reduce the L2 error — this is the constrained
// analogue of the Hay-style inference used elsewhere, and costs no budget.
func ConsistentWithConstraints(s *Set, released []float64) ([]float64, error) {
	rows := make([][]float64, s.Len())
	for qi, q := range s.queries {
		row := make([]float64, len(released))
		if err := s.dom.Points(func(p domain.Point) bool {
			if q.Pred(p) {
				row[p] = 1
			}
			return true
		}); err != nil {
			return nil, err
		}
		rows[qi] = row
	}
	return infer.ProjectLinear(released, rows, s.answers)
}
