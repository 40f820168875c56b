//go:build !race

package service

import (
	"encoding/json"
	"runtime"
	"strconv"
	"strings"
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

// decodeBytes returns the bytes one json.Unmarshal of body into a
// CreateDatasetRequest allocates, and whether it was refused.
func decodeBytes(t *testing.T, body []byte) (allocated uint64, refused bool) {
	t.Helper()
	const runs = 4
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		var req CreateDatasetRequest
		refused = json.Unmarshal(body, &req) != nil
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs, refused
}

// TestRowsRefusalAllocatesNoMoreThanUpload pins the decode's size hints to
// the body's length. The hints count brackets and commas, and a JSON
// string may hold any number of them: a 1 MiB body whose rows hold
// [["[[[…"]] used to size 24 bytes of row headers per bracket before the
// parser refused the string. Such a body must allocate no more than a real
// upload of the same size, and so must a body of null rows, which the
// bracket count missed, so that appends grew the row headers in steps.
// One that nests arrays instead of quoting them may allocate no more than
// 8 bytes per body byte, the most a valid body holds (a 24-byte header and
// an 8-byte integer per 4-byte row "[0],"), plus 16 KiB for
// encoding/json's own allocations and page rounding.
func TestRowsRefusalAllocatesNoMoreThanUpload(t *testing.T) {
	const size = 1 << 20
	head := `{"policy_id":"pol-1","rows":`
	upload := []byte(head + "[")
	for i := 0; len(upload) < size; i++ {
		if i > 0 {
			upload = append(upload, ',')
		}
		upload = append(upload, '[')
		upload = strconv.AppendInt(upload, int64(i*7919%1024), 10)
		upload = append(upload, ']')
	}
	upload = append(upload, "]}"...)
	quoted := head + `[["` + strings.Repeat("[", len(upload)-len(head)-len(`[[""]]}`)) + `"]]}`
	nested := head + "[" + strings.Repeat("[[]],", (len(upload)-len(head)-2)/5) + "[[]]]}"

	want, refused := decodeBytes(t, upload)
	if refused {
		t.Fatal("the upload was refused")
	}
	got, refused := decodeBytes(t, []byte(quoted))
	if !refused {
		t.Fatal("a string inside a row was accepted")
	}
	if got > want {
		t.Errorf("a %d-byte body of quoted brackets allocates %d bytes before its refusal, more than the %d of a %d-byte upload", len(quoted), got, want, len(upload))
	}
	nulls := head + "[" + strings.Repeat("null,", (len(upload)-len(head)-6)/5) + "null]}"
	if got, _ := decodeBytes(t, []byte(nulls)); got > want {
		t.Errorf("a %d-byte body of null rows allocates %d bytes, more than the %d of a %d-byte upload", len(nulls), got, want, len(upload))
	}
	got, refused = decodeBytes(t, []byte(nested))
	if !refused {
		t.Fatal("nested arrays were accepted")
	}
	if bound := 8*uint64(len(nested)) + 16<<10; got > bound {
		t.Errorf("a %d-byte body of nested arrays allocates %d bytes before its refusal, want <= %d", len(nested), got, bound)
	}
}
