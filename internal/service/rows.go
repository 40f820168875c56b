package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
)

// Rows is a dataset upload's tuples, one []int per row. It decodes without
// reflection: one pass parses every integer into a single backing array,
// and each row is a three-index slice of it, so appending to a row copies
// the row instead of overwriting the next one. It refuses what
// encoding/json refuses for [][]int (fractions, exponents, numbers outside
// int, strings, objects, deeper nesting) and also null inside a row, which
// encoding/json would read as 0. A null field or a null row decodes to nil
// as encoding/json has it.
type Rows [][]int

// Row is one event's tuple. It decodes with the same integer parser as
// Rows and refuses the same inputs. A decode reuses the Row's backing
// array, writing from index 0.
type Row []int

// The types decode errors name: those encoding/json names for a [][]int.
var (
	intType  = reflect.TypeFor[int]()
	rowType  = reflect.TypeFor[[]int]()
	rowsType = reflect.TypeFor[[][]int]()
)

// UnmarshalJSON implements json.Unmarshaler.
func (r *Rows) UnmarshalJSON(b []byte) error {
	p := rowParser{b: b}
	if p.null() {
		*r = nil
		return p.end()
	}
	if !p.skip('[') {
		return p.typeErr(rowsType)
	}
	// Every row opens a bracket or is a null (the one JSON token outside a
	// string that holds an 'n'), and every integer after the first follows
	// a comma that no null row takes, so these counts bound the row count
	// and the backing array, both allocated once. The parser refuses the
	// first string it meets, so only the bytes before the first quote
	// count. A valid value of len(b) bytes holds r rows and v integers with
	// 3r+v <= len(b)-1 (a row takes at least 3 bytes of brackets and comma,
	// an integer a digit): the hints keep to that bound whatever else the
	// value contains.
	read := b
	if q := bytes.IndexByte(b, '"'); q >= 0 {
		read = b[:q]
	}
	nulls := bytes.Count(read, []byte{'n'})
	nrows := min(bytes.Count(read, []byte{'['})-1+nulls, (len(b)-1)/3)
	vals := make([]int, 0, max(0, min(bytes.Count(read, []byte{','})+1-nulls, len(b)-1-3*nrows)))
	rows := make(Rows, 0, nrows)
	err := p.list(func() error {
		if p.null() {
			rows = append(rows, nil)
			return nil
		}
		s := len(vals)
		var err error
		vals, err = p.ints(vals)
		rows = append(rows, vals[s:len(vals):len(vals)])
		return err
	})
	if err != nil {
		return err
	}
	*r = rows
	return p.end()
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *Row) UnmarshalJSON(b []byte) error {
	p := rowParser{b: b}
	if p.null() {
		*r = nil
		return p.end()
	}
	vals, err := p.ints((*r)[:0])
	if err != nil {
		return err
	}
	*r = vals
	return p.end()
}

// rowParser reads JSON arrays of integers from b. Inputs that reach it
// through encoding/json are already valid JSON, so its syntax errors only
// guard direct calls.
type rowParser struct {
	b []byte
	i int
}

var errRowSyntax = errors.New("rows: invalid JSON")

func (p *rowParser) ws() {
	for p.i < len(p.b) && (p.b[p.i] == ' ' || p.b[p.i] == '\t' || p.b[p.i] == '\n' || p.b[p.i] == '\r') {
		p.i++
	}
}

// skip consumes c if it comes next, after any whitespace.
func (p *rowParser) skip(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// null consumes a null literal if one comes next.
func (p *rowParser) null() bool {
	p.ws()
	if bytes.HasPrefix(p.b[p.i:], []byte("null")) {
		p.i += len("null")
		return true
	}
	return false
}

// end requires that nothing but whitespace follows the value.
func (p *rowParser) end() error {
	if p.ws(); p.i != len(p.b) {
		return errRowSyntax
	}
	return nil
}

// list calls elem for each element of an array whose '[' is consumed,
// through its ']'.
func (p *rowParser) list(elem func() error) error {
	if p.skip(']') {
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if p.skip(']') {
			return nil
		}
		if !p.skip(',') {
			return errRowSyntax
		}
	}
}

// ints appends the integers of the array that comes next.
func (p *rowParser) ints(vals []int) ([]int, error) {
	if !p.skip('[') {
		return vals, p.typeErr(rowType)
	}
	err := p.list(func() error {
		v, err := p.int()
		vals = append(vals, v)
		return err
	})
	return vals, err
}

// int parses one JSON number that must be an integer within int, as
// encoding/json's int decode does.
func (p *rowParser) int() (int, error) {
	neg := p.skip('-')
	start, digits := p.i, p.i
	if neg {
		start--
	}
	var u uint64
	overflow := false
	for ; p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9'; p.i++ {
		d := uint64(p.b[p.i] - '0')
		overflow = overflow || u > (math.MaxUint64-d)/10
		u = u*10 + d
	}
	switch {
	case p.i == digits && !neg:
		return 0, p.typeErr(intType)
	case p.i == digits || p.b[digits] == '0' && p.i-digits > 1:
		return 0, errRowSyntax
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	fraction := p.i < len(p.b) && (p.b[p.i] == '.' || p.b[p.i] == 'e' || p.b[p.i] == 'E')
	if fraction || overflow || u > limit {
		for p.i < len(p.b) && bytes.IndexByte([]byte("0123456789.eE+-"), p.b[p.i]) >= 0 {
			p.i++
		}
		return 0, &json.UnmarshalTypeError{Value: "number " + string(p.b[start:p.i]), Type: intType, Offset: int64(start)}
	}
	if neg {
		return -int(u), nil
	}
	return int(u), nil
}

// typeErr names the JSON value at p.i that cannot decode into t, in
// encoding/json's words.
func (p *rowParser) typeErr(t reflect.Type) error {
	if p.i == len(p.b) {
		return errRowSyntax
	}
	var what string
	switch c := p.b[p.i]; {
	case c == '[':
		what = "array"
	case c == '{':
		what = "object"
	case c == '"':
		what = "string"
	case c == 't' || c == 'f':
		what = "bool"
	case c == 'n':
		what = "null"
	case c == '-' || '0' <= c && c <= '9':
		what = "number"
	default:
		return errRowSyntax
	}
	return &json.UnmarshalTypeError{Value: what, Type: t, Offset: int64(p.i)}
}
