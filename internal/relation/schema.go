// Package relation defines schemas, tuples, and materialized relations
// — the data plane every operator in the engine consumes and produces.
//
// Columns are addressed positionally at execution time; names (with a
// relation qualifier, e.g. "F.StartTime") exist for binding expressions
// and for display. Renaming a relation (the paper's Flow → F) only
// rewrites qualifiers.
package relation

import (
	"encoding/binary"
	"fmt"
	"strings"

	"github.com/olaplab/gmdj/internal/value"
)

// Column describes one attribute of a schema.
type Column struct {
	// Qualifier is the relation alias the column belongs to ("F", "H").
	// It may be empty for computed columns.
	Qualifier string
	// Name is the attribute name ("StartTime").
	Name string
	// Type is the declared kind. KindNull means "unknown/any" and is
	// used for computed columns whose type depends on the data.
	Type value.Kind
}

// QualifiedName returns "Qualifier.Name", or just "Name" when there is
// no qualifier.
func (c Column) QualifiedName() string {
	if c.Qualifier == "" {
		return c.Name
	}
	return c.Qualifier + "." + c.Name
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema {
	return &Schema{Columns: cols}
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// Find resolves a column reference to its position. The reference may
// be qualified ("F.StartTime") or bare ("StartTime"). A bare reference
// is ambiguous when several columns share the name; Find reports that
// as an error so binders fail loudly rather than picking one.
func (s *Schema) Find(qualifier, name string) (int, error) {
	found := -1
	for i, c := range s.Columns {
		if c.Name != name {
			continue
		}
		if qualifier != "" && c.Qualifier != qualifier {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("relation: ambiguous column reference %q", joinRef(qualifier, name))
		}
		found = i
	}
	if found < 0 {
		return -1, fmt.Errorf("relation: unknown column %q in schema %s", joinRef(qualifier, name), s)
	}
	return found, nil
}

func joinRef(q, n string) string {
	if q == "" {
		return n
	}
	return q + "." + n
}

// Concat returns a new schema with the columns of s followed by those
// of o. Used by joins and by the GMDJ (whose θ conditions range over
// the concatenation of a base tuple and a detail tuple).
func (s *Schema) Concat(o *Schema) *Schema {
	cols := make([]Column, 0, len(s.Columns)+len(o.Columns))
	cols = append(cols, s.Columns...)
	cols = append(cols, o.Columns...)
	return &Schema{Columns: cols}
}

// Rename returns a copy of the schema with every column's qualifier
// replaced by alias (the algebra's R → A).
func (s *Schema) Rename(alias string) *Schema {
	cols := make([]Column, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = Column{Qualifier: alias, Name: c.Name, Type: c.Type}
	}
	return &Schema{Columns: cols}
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	cols := make([]Column, len(s.Columns))
	copy(cols, s.Columns)
	return &Schema{Columns: cols}
}

// String renders the schema as "(F.A INT, F.B STRING)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.QualifiedName())
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Equal reports whether two schemas have identical column lists.
func (s *Schema) Equal(o *Schema) bool {
	if len(s.Columns) != len(o.Columns) {
		return false
	}
	for i := range s.Columns {
		if s.Columns[i] != o.Columns[i] {
			return false
		}
	}
	return true
}

// AppendBinary appends the wire form of the schema — column count,
// then qualifier, name and type byte per column — as held by segment
// headers, manifests and spilled relations alike.
func (s *Schema) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.Len()))
	for _, c := range s.Columns {
		dst = value.AppendString(dst, c.Qualifier)
		dst = value.AppendString(dst, c.Name)
		dst = append(dst, byte(c.Type))
	}
	return dst
}

// ReadSchema decodes a schema written by AppendBinary. Malformed input
// (an unknown column type included) is recorded on r; check r.Err.
func ReadSchema(r *value.Reader) *Schema {
	ncols := r.Count()
	cols := make([]Column, 0, min(ncols, 256))
	for i := 0; i < ncols && r.Err() == nil; i++ {
		c := Column{Qualifier: r.Str(), Name: r.Str(), Type: value.Kind(r.Byte())}
		if c.Type > value.KindBool {
			r.Failf("schema column %d has unknown type %d", i, c.Type)
		}
		cols = append(cols, c)
	}
	return NewSchema(cols...)
}
