package relation

import (
	"slices"

	"github.com/olaplab/gmdj/internal/value"
)

// ColVec is one column in typed form: a stored table's per-column
// vector (storage.Table.Column), a segment's column, or a predicate's
// gathered morsel. For a uniformly typed column the payload lives in
// exactly one of the typed slices (indexed by row, with Nulls flagging
// SQL NULL positions); a column whose non-NULL cells mix runtime kinds
// falls back to Boxed, which stores the cells verbatim. Readers iterate
// the typed slices and rebuild value.Value structs on the stack, so a
// cell read never costs a heap allocation.
//
// A STRING column Coded made keeps codes into a dictionary, not Strs, up
// to MaxDict distinct strings: Append extends it, never renumbering, so
// an earlier copy reads on; past the bound the column moves to new Strs.
type ColVec struct {
	// Kind is the runtime kind of every non-NULL cell. KindNull marks a
	// mixed column stored in Boxed, or one with no non-NULL cell.
	Kind value.Kind
	// Nulls flags NULL rows. Always row-indexed, even for Boxed columns.
	Nulls []bool
	// Ints holds KindInt payloads and KindBool payloads (0/1).
	Ints []int64
	// Floats holds KindFloat payloads.
	Floats []float64
	// Strs holds KindString payloads of a plain column.
	Strs []string
	// A coded column's (Dict != nil) row i is Dict[Codes[i]], Dict in the
	// order Append met the strings; DictHash[c] is Dict[c]'s key hash.
	Codes    []uint32
	Dict     []string
	DictHash []uint64
	index    map[string]uint32 // Dict's inverse, for the column's writer
	// Boxed holds the cells of a mixed column verbatim (nil otherwise).
	Boxed []value.Value
}

// MaxDict bounds a coded column's dictionary.
const MaxDict = 1 << 12

// Coded returns an empty column of kind k whose STRING cells Append codes.
func Coded(k value.Kind) *ColVec { return &ColVec{Kind: k, index: map[string]uint32{}} }

// Len returns the row count.
func (c *ColVec) Len() int { return len(c.Nulls) }

// Value reconstructs the cell at row i. The returned Value is
// structurally identical to the one the column was built from.
func (c *ColVec) Value(i int) value.Value {
	if c.Boxed != nil {
		return c.Boxed[i]
	}
	if c.Nulls[i] {
		return value.Null
	}
	switch c.Kind {
	case value.KindInt:
		return value.Int(c.Ints[i])
	case value.KindFloat:
		return value.Float(c.Floats[i])
	case value.KindString:
		if c.Dict != nil {
			return value.Str(c.Dict[c.Codes[i]])
		}
		return value.Str(c.Strs[i])
	case value.KindBool:
		return value.Bool(c.Ints[i] != 0)
	}
	return value.Null
}

// Set stores v, a non-NULL cell of the column's kind, at row i of a
// typed column.
func (c *ColVec) Set(i int, v value.Value) {
	switch c.Kind {
	case value.KindInt:
		c.Ints[i] = v.AsInt()
	case value.KindFloat:
		c.Floats[i] = v.AsFloat()
	case value.KindString:
		if c.Dict != nil {
			c.code(i, v.AsString())
		} else {
			c.Strs[i] = v.AsString()
		}
	case value.KindBool:
		if v.AsBool() {
			c.Ints[i] = 1
		}
	}
}

// Append appends column col of rows to c, in place, NULL as a zero
// payload. A cell of another kind than c's retypes a column of NULLs and
// boxes any other: the cells decide the kind, not the schema. It reports
// false, having appended a prefix, when a row has no column col.
func (c *ColVec) Append(rows []Tuple, col int) bool {
	n := c.Len()
	c.Resize(n + len(rows))
	for i, row := range rows {
		if col >= len(row) {
			c.Resize(n + i)
			return false
		}
		v := &row[col]
		if c.Nulls[n+i] = v.IsNull(); !c.Nulls[n+i] && c.Boxed == nil && v.Kind() != c.Kind {
			c.retype(v.Kind(), n+i)
		}
		switch {
		case c.Boxed != nil:
			c.Boxed[n+i] = *v
		case c.Nulls[n+i]:
		case c.Kind == value.KindInt:
			c.Ints[n+i] = v.AsInt()
		case c.Kind == value.KindFloat:
			c.Floats[n+i] = v.AsFloat()
		case c.Kind == value.KindString && c.Dict == nil:
			c.Strs[n+i] = v.AsString()
		default:
			c.Set(n+i, *v)
		}
	}
	return true
}

// Resize sets c to n rows, flags and payloads zero past its length.
func (c *ColVec) Resize(n int) {
	switch c.Nulls = resize(c.Nulls, n); {
	case c.Boxed != nil:
		c.Boxed = resize(c.Boxed, n)
	case c.Kind == value.KindInt || c.Kind == value.KindBool:
		c.Ints = resize(c.Ints, n)
	case c.Kind == value.KindFloat:
		c.Floats = resize(c.Floats, n)
	case c.Kind == value.KindString && (c.Dict != nil || c.index != nil):
		if c.Codes = resize(c.Codes, n); c.Dict == nil {
			c.Dict = []string{} // coded from the first row on
		}
	case c.Kind == value.KindString:
		c.Strs = resize(c.Strs, n)
	}
}

// code stores s at row i of a coded column, a new string taking the next
// code; past MaxDict, or in one Coded did not make, the column goes plain.
func (c *ColVec) code(i int, s string) {
	code, ok := c.index[s]
	if !ok && (len(c.Dict) == MaxDict || c.index == nil) {
		strs := make([]string, len(c.Nulls))
		for j := range i {
			if !c.Nulls[j] {
				strs[j] = c.Dict[c.Codes[j]]
			}
		}
		c.Strs, c.Codes, c.Dict, c.DictHash, c.index = strs, nil, nil, nil, nil
		c.Strs[i] = s
		return
	}
	if !ok {
		code, c.index[s] = uint32(len(c.Dict)), uint32(len(c.Dict))
		c.Dict, c.DictHash = append(c.Dict, s), append(c.DictHash, value.FoldHash(value.HashInit, value.Str(s)))
	}
	c.Codes[i] = code
}

func resize[T any](s []T, n int) []T {
	if n <= len(s) {
		return s[:n]
	}
	return append(s, make([]T, n-len(s))...)
}

// retype makes room for a cell of kind k at row at: a column whose first
// at cells are NULL takes k, any other is boxed into a new slice (readers
// of an earlier copy of c keep theirs).
func (c *ColVec) retype(k value.Kind, at int) {
	if !slices.Contains(c.Nulls[:at], false) {
		c.Kind, c.Ints, c.Floats, c.Strs, c.Codes, c.Dict = k, c.Ints[:0], c.Floats[:0], c.Strs[:0], c.Codes[:0], nil
		c.Resize(len(c.Nulls))
		return
	}
	boxed := make([]value.Value, len(c.Nulls))
	for i := range at {
		boxed[i] = c.Value(i)
	}
	c.Kind, c.Boxed, c.Ints, c.Floats, c.Strs = value.KindNull, boxed, nil, nil, nil
	c.Codes, c.Dict, c.DictHash, c.index = nil, nil, nil, nil
}

// Prefix returns c's first n rows (c itself when it has n), sharing
// its storage.
func (c *ColVec) Prefix(n int) *ColVec {
	if n == c.Len() {
		return c
	}
	p := *c
	p.Resize(n)
	return &p
}
