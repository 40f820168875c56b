package constraints

import (
	"errors"
	"fmt"
	"strings"

	"blowfish/internal/domain"
)

// Marginal identifies a marginal (cuboid) [C] ⊆ {A1,...,Ak} by attribute
// indexes (Definition 8.4).
type Marginal struct {
	dom   *domain.Domain
	attrs []int
}

// NewMarginal validates and constructs a marginal over the given attribute
// indexes. The paper's theorems require [C] ⊊ A (a strict subset); the full
// marginal is rejected.
func NewMarginal(d *domain.Domain, attrs []int) (*Marginal, error) {
	if len(attrs) == 0 {
		return nil, errors.New("constraints: marginal over no attributes")
	}
	if len(attrs) >= d.NumAttrs() {
		return nil, errors.New("constraints: marginal must be over a strict subset of attributes")
	}
	seen := make(map[int]bool, len(attrs))
	for _, a := range attrs {
		if a < 0 || a >= d.NumAttrs() {
			return nil, fmt.Errorf("constraints: attribute index %d out of range [0,%d)", a, d.NumAttrs())
		}
		if seen[a] {
			return nil, fmt.Errorf("constraints: duplicate attribute index %d", a)
		}
		seen[a] = true
	}
	return &Marginal{dom: d, attrs: append([]int(nil), attrs...)}, nil
}

// Size returns size(C) = Π |Ai| over the marginal's attributes: the number
// of cells (count queries) in the marginal.
func (m *Marginal) Size() int {
	size := 1
	for _, a := range m.attrs {
		size *= m.dom.Attr(a).Size
	}
	return size
}

// Queries expands the marginal into its count queries C^q: one conjunctive
// equality predicate per cell, enumerated in row-major order of the
// marginal attributes.
func (m *Marginal) Queries() []CountQuery {
	out := make([]CountQuery, 0, m.Size())
	vals := make([]int, len(m.attrs))
	var build func(i int)
	build = func(i int) {
		if i == len(m.attrs) {
			fixed := append([]int(nil), vals...)
			attrs := append([]int(nil), m.attrs...)
			var parts []string
			for j, a := range attrs {
				parts = append(parts, fmt.Sprintf("%s=%d", m.dom.Attr(a).Name, fixed[j]))
			}
			d := m.dom
			out = append(out, CountQuery{
				Name: strings.Join(parts, "∧"),
				Pred: func(p domain.Point) bool {
					for j, a := range attrs {
						if d.Value(p, a) != fixed[j] {
							return false
						}
					}
					return true
				},
			})
			return
		}
		for v := 0; v < m.dom.Attr(m.attrs[i]).Size; v++ {
			vals[i] = v
			build(i + 1)
		}
	}
	build(0)
	return out
}

// Set materializes the marginal constraint I_Q(C) with answers taken from
// ds.
func (m *Marginal) Set(ds *domain.Dataset) (*Set, error) {
	if !ds.Domain().Equal(m.dom) {
		return nil, errors.New("constraints: dataset is over a different domain")
	}
	return FromDataset(m.Queries(), ds)
}

// FullDomainSensitivity returns Theorem 8.4: for a policy with full-domain
// secrets and one known marginal C with [C] ⊊ A, S(h, P) = 2·size(C).
func (m *Marginal) FullDomainSensitivity() float64 {
	return 2 * float64(m.Size())
}

// DisjointMarginalsAttributeSensitivity returns Theorem 8.5: for attribute
// secrets G^attr and known pairwise-disjoint marginals C1..Cp (each a
// strict subset of attributes), S(h, P) = 2·max_i size(Ci). It validates
// disjointness.
func DisjointMarginalsAttributeSensitivity(marginals []*Marginal) (float64, error) {
	if len(marginals) == 0 {
		return 0, errors.New("constraints: no marginals")
	}
	d := marginals[0].dom
	used := make(map[int]bool)
	best := 0
	for _, m := range marginals {
		if !m.dom.Equal(d) {
			return 0, errors.New("constraints: marginals over different domains")
		}
		for _, a := range m.attrs {
			if used[a] {
				return 0, fmt.Errorf("constraints: attribute %d appears in two marginals", a)
			}
			used[a] = true
		}
		if s := m.Size(); s > best {
			best = s
		}
	}
	return 2 * float64(best), nil
}

// UnionSet materializes the union constraint set Q = C1^q ∪ ... ∪ Cp^q with
// answers from ds.
func UnionSet(marginals []*Marginal, ds *domain.Dataset) (*Set, error) {
	if len(marginals) == 0 {
		return nil, errors.New("constraints: no marginals")
	}
	var queries []CountQuery
	for _, m := range marginals {
		if !ds.Domain().Equal(m.dom) {
			return nil, errors.New("constraints: dataset is over a different domain")
		}
		queries = append(queries, m.Queries()...)
	}
	return FromDataset(queries, ds)
}
