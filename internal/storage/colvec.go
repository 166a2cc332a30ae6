package storage

import (
	"math"

	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// ColVec is one column of a segment in packed columnar form. For a
// uniformly typed column the payload lives in exactly one of the typed
// slices (indexed by row, with Nulls flagging SQL NULL positions); a
// column whose non-NULL cells mix runtime kinds falls back to Boxed,
// which stores the cells verbatim. Hot paths — GMDJ detail-key hashing,
// rebuilding rows — iterate the typed slices and rebuild
// value.Value structs on the stack, so packing never costs a per-cell
// heap allocation.
type ColVec struct {
	// Kind is the runtime kind of every non-NULL cell. KindNull marks a
	// mixed column stored in Boxed.
	Kind value.Kind
	// Nulls flags NULL rows. Always row-indexed, even for Boxed columns.
	Nulls []bool
	// Ints holds KindInt payloads and KindBool payloads (0/1).
	Ints []int64
	// Floats holds KindFloat payloads.
	Floats []float64
	// Strs holds KindString payloads.
	Strs []string
	// Boxed holds the cells of a mixed column verbatim (nil otherwise).
	Boxed []value.Value
}

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
		return value.Str(c.Strs[i])
	case value.KindBool:
		return value.Bool(c.Ints[i] != 0)
	}
	return value.Null
}

// buildColVec packs column col of rel. The packed kind is decided by
// the cells actually present (not the declared schema type) so that
// decoding reproduces every cell exactly; an all-NULL column adopts
// the declared type.
func buildColVec(rel *relation.Relation, col int) *ColVec {
	n := len(rel.Rows)
	kind := value.KindNull
	uniform := true
	for _, row := range rel.Rows {
		v := row[col]
		if v.IsNull() {
			continue
		}
		if kind == value.KindNull {
			kind = v.Kind()
		} else if v.Kind() != kind {
			uniform = false
			break
		}
	}
	if kind == value.KindNull {
		kind = rel.Schema.Columns[col].Type
	}
	if !uniform || kind == value.KindNull {
		c := &ColVec{Kind: value.KindNull, Nulls: make([]bool, n), Boxed: make([]value.Value, n)}
		for i, row := range rel.Rows {
			c.Boxed[i] = row[col]
			c.Nulls[i] = row[col].IsNull()
		}
		return c
	}
	c := &ColVec{Kind: kind, Nulls: make([]bool, n)}
	allocTyped(c, n)
	for i, row := range rel.Rows {
		if v := row[col]; v.IsNull() {
			c.Nulls[i] = true
		} else {
			c.set(i, v)
		}
	}
	return c
}

// set stores v, a non-NULL cell of the column's kind, at row i of a
// typed column.
func (c *ColVec) set(i int, v value.Value) {
	switch c.Kind {
	case value.KindInt:
		c.Ints[i] = v.AsInt()
	case value.KindFloat:
		c.Floats[i] = v.AsFloat()
	case value.KindString:
		c.Strs[i] = v.AsString()
	case value.KindBool:
		if v.AsBool() {
			c.Ints[i] = 1
		}
	}
}

// sameCell reports whether rows i and j of the column hold
// bit-identical cells. Run-length encoding groups by this, not by SQL
// equality: FLOAT 0.0 and -0.0 compare equal but must round-trip to
// their own bit patterns.
func (c *ColVec) sameCell(i, j int) bool {
	if c.Nulls[i] != c.Nulls[j] {
		return false
	}
	if c.Nulls[i] {
		return true
	}
	if c.Boxed != nil {
		a, b := c.Boxed[i], c.Boxed[j]
		if a.Kind() != b.Kind() {
			return false
		}
		switch a.Kind() {
		case value.KindInt:
			return a.AsInt() == b.AsInt()
		case value.KindFloat:
			return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
		case value.KindString:
			return a.AsString() == b.AsString()
		case value.KindBool:
			return a.AsBool() == b.AsBool()
		}
		return false
	}
	switch c.Kind {
	case value.KindInt, value.KindBool:
		return c.Ints[i] == c.Ints[j]
	case value.KindFloat:
		return math.Float64bits(c.Floats[i]) == math.Float64bits(c.Floats[j])
	case value.KindString:
		return c.Strs[i] == c.Strs[j]
	}
	return false
}
