package domain

import (
	"fmt"
	"strings"
	"testing"
)

// TestCSVRoundTrip writes tuples in the interchange format (a header of
// attribute names, one row of values per tuple, in id order) and reads them
// back tuple for tuple.
func TestCSVRoundTrip(t *testing.T) {
	d := MustNew(Attribute{"age", 100}, Attribute{"income", 5})
	ds := NewDataset(d)
	src := []struct{ age, income int }{
		{25, 2}, {67, 4}, {0, 0}, {99, 1}, {25, 2},
	}
	var text strings.Builder
	text.WriteString("age,income\n")
	for _, r := range src {
		ds.MustAdd(d.MustEncode(r.age, r.income))
		fmt.Fprintf(&text, "%d,%d\n", r.age, r.income)
	}
	back, err := ReadCSV(d, strings.NewReader(text.String()))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if back.Len() != ds.Len() {
		t.Fatalf("round trip length %d, want %d", back.Len(), ds.Len())
	}
	for i := 0; i < ds.Len(); i++ {
		if back.At(i) != ds.At(i) {
			t.Fatalf("tuple %d changed: %d vs %d", i, back.At(i), ds.At(i))
		}
	}
}

func TestCSVEmptyDataset(t *testing.T) {
	d := MustLine("v", 4)
	back, err := ReadCSV(d, strings.NewReader("v\n"))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if back.Len() != 0 {
		t.Fatalf("header-only CSV produced %d tuples", back.Len())
	}
}

func TestReadCSVValidation(t *testing.T) {
	d := MustNew(Attribute{"a", 3}, Attribute{"b", 3})
	cases := []struct {
		name string
		csv  string
	}{
		{"wrong header name", "a,c\n1,1\n"},
		{"wrong column count", "a\n1\n"},
		{"non-integer value", "a,b\n1,x\n"},
		{"out of range value", "a,b\n1,7\n"},
		{"negative value", "a,b\n-1,0\n"},
		{"ragged row", "a,b\n1,2\n3\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadCSV(d, strings.NewReader(c.csv)); err == nil {
				t.Fatalf("ReadCSV accepted %q", c.csv)
			}
		})
	}
}
