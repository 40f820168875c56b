package service

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"testing"
)

// TestRowsDecodeEdges pins Rows' decode on the inputs where a hand-written
// parser is most likely to part from encoding/json: each case is decoded
// both ways, and only null inside a row may differ. It also checks that
// rows do not overlap in their shared backing array.
func TestRowsDecodeEdges(t *testing.T) {
	minInt := strconv.Itoa(math.MinInt)                      // -9223372036854775808 on 64-bit
	pastMax := strconv.FormatUint(uint64(math.MaxInt)+1, 10) // 9223372036854775808 on 64-bit
	for _, tc := range []struct {
		in   string
		want Rows // nil with ok false: refused
		ok   bool
	}{
		{" \t\n\r[ \t\n\r[ \t\n\r1 \t\n\r, \t\n\r2 \t\n\r] \t\n\r, \t\n\r[3] \t\n\r] \t\n\r", Rows{{1, 2}, {3}}, true},
		{"[[-0]]", Rows{{0}}, true},
		{"[[1.0]]", nil, false},
		{"[[1e2]]", nil, false},
		{"[[1E2]]", nil, false},
		{"[[[1]]]", nil, false},
		{"[]", Rows{}, true},
		{"[[]]", Rows{{}}, true},
		{"null", nil, true},
		{"[[1],null,[3]]", Rows{{1}, nil, {3}}, true},
		{"[[" + minInt + "]]", Rows{{math.MinInt}}, true},
		{"[[" + pastMax + "]]", nil, false},
		{`[["1"]]`, nil, false},
		{`[[{}]]`, nil, false},
		{`[1]`, nil, false},
		{`{}`, nil, false},
	} {
		var got Rows
		err := json.Unmarshal([]byte(tc.in), &got)
		if (err == nil) != tc.ok {
			t.Errorf("%q: err = %v, want ok %v", tc.in, err, tc.ok)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: rows = %#v, want %#v", tc.in, got, tc.want)
		}
		var std [][]int
		stdErr := json.Unmarshal([]byte(tc.in), &std)
		if (stdErr == nil) != tc.ok || tc.ok && !reflect.DeepEqual([][]int(got), std) {
			t.Errorf("%q: encoding/json gives %#v, %v; Rows gives %#v, %v", tc.in, std, stdErr, got, err)
		}
	}

	// null inside a row is the one input encoding/json takes (as 0) and
	// Rows refuses.
	for _, in := range []string{"[[null]]", "[[1],[null],[3]]", "[[1, null]]"} {
		var got Rows
		if err := json.Unmarshal([]byte(in), &got); err == nil {
			t.Errorf("%q: decoded to %v, want a refusal", in, got)
		}
		var std [][]int
		if err := json.Unmarshal([]byte(in), &std); err != nil {
			t.Errorf("%q: encoding/json refuses it too (%v); the case no longer pins a difference", in, err)
		}
	}

	// Rows share one backing array; appending to a row must copy it, not
	// overwrite the next row.
	var rows Rows
	if err := json.Unmarshal([]byte("[[1,2],[3,4],[5]]"), &rows); err != nil {
		t.Fatal(err)
	}
	rows[0] = append(rows[0], 9)
	if want := (Rows{{1, 2, 9}, {3, 4}, {5}}); !reflect.DeepEqual(rows, want) {
		t.Errorf("after append to rows[0]: %v, want %v", rows, want)
	}
}

// TestRowReusesStorage checks that a Row decode writes into the storage it
// already has, which the NDJSON front's pooled scratch relies on.
func TestRowReusesStorage(t *testing.T) {
	r := make(Row, 3, 8)
	base := &r[0]
	if err := json.Unmarshal([]byte("[7, 8]"), &r); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(r, Row{7, 8}) || &r[0] != base {
		t.Fatalf("decoded %v into new storage, want [7 8] in place", r)
	}
	for _, in := range []string{"[null]", "[1.5]", `["1"]`, "[[1]]"} {
		if err := json.Unmarshal([]byte(in), &r); err == nil {
			t.Errorf("%q: decoded to %v, want a refusal", in, r)
		}
	}
}

// FuzzRowsDecode checks Rows against encoding/json's [][]int decode: equal
// rows, or both refuse. The one allowed difference is null inside a row,
// which only Rows refuses; decoding into [][]*int finds such nulls
// independently of the parser under test.
func FuzzRowsDecode(f *testing.F) {
	// The edge cases are committed seeds under testdata/fuzz.
	f.Add([]byte("[[1,2],[3]]"))
	f.Add([]byte(`{"x":"y"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Rows
		err := json.Unmarshal(data, &got)
		var std [][]int
		stdErr := json.Unmarshal(data, &std)
		var ptrs [][]*int
		nullInRow := false
		if json.Unmarshal(data, &ptrs) == nil {
			for _, row := range ptrs {
				nullInRow = nullInRow || slices.Contains(row, nil)
			}
		}
		switch {
		case nullInRow:
			if err == nil {
				t.Fatalf("%q: Rows took null inside a row: %v", data, got)
			}
		case (err == nil) != (stdErr == nil):
			t.Fatalf("%q: Rows err %v, encoding/json err %v", data, err, stdErr)
		case err == nil && !reflect.DeepEqual([][]int(got), std):
			t.Fatalf("%q: Rows %#v, encoding/json %#v", data, got, std)
		}
	})
}
