package domain

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// ReadCSV parses a dataset over d from CSV: a header row whose column names
// must match d's attribute names in order, then one integer row per tuple.
// Values are validated against the attribute ranges.
func ReadCSV(d *Domain, r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = d.NumAttrs()
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("domain: reading CSV header: %w", err)
	}
	for i, name := range header {
		if name != d.Attr(i).Name {
			return nil, fmt.Errorf("domain: CSV column %d is %q, want %q", i, name, d.Attr(i).Name)
		}
	}
	ds := NewDataset(d)
	vals := make([]int, d.NumAttrs())
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return ds, nil
		}
		if err != nil {
			return nil, fmt.Errorf("domain: reading CSV line %d: %w", line, err)
		}
		for i, field := range rec {
			v, err := strconv.Atoi(field)
			if err != nil {
				return nil, fmt.Errorf("domain: CSV line %d column %q: %w", line, d.Attr(i).Name, err)
			}
			vals[i] = v
		}
		p, err := d.Encode(vals...)
		if err != nil {
			return nil, fmt.Errorf("domain: CSV line %d: %w", line, err)
		}
		if err := ds.Add(p); err != nil {
			return nil, fmt.Errorf("domain: CSV line %d: %w", line, err)
		}
	}
}
