//go:build !race

package service

import (
	"encoding/json"
	"strconv"
	"testing"
)

// TestRowsDecodeAllocBudget pins a Rows decode to one allocation bound
// whatever the row count. It makes 5: the backing array, the row headers
// and encoding/json's own three; the bound leaves room for what the
// runtime allocates when a large decode starts a GC cycle. A decode that
// allocated per row, as encoding/json's [][]int decode does, would read
// about 100,000 here. AllocsPerRun is meaningless under -race, hence the
// build tag, as for the engine pins.
func TestRowsDecodeAllocBudget(t *testing.T) {
	const budget = 8
	for _, n := range []int{10, 100_000} {
		body := []byte{'['}
		for i := range n {
			if i > 0 {
				body = append(body, ',')
			}
			body = append(body, '[')
			body = strconv.AppendInt(body, int64(i%1024), 10)
			body = append(body, ']')
		}
		body = append(body, ']')
		var rows Rows
		allocs := testing.AllocsPerRun(10, func() {
			rows = nil
			if err := json.Unmarshal(body, &rows); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget || len(rows) != n {
			t.Errorf("%d rows: %v allocs/op, %d rows decoded; pinned at <= %d allocs", n, allocs, len(rows), budget)
		}
	}
}
