package storage

import (
	"fmt"
	"slices"

	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// ZoneBlockRows is the block granularity of zone maps: every
// ZoneBlockRows consecutive rows of a column share one min/max entry.
const ZoneBlockRows = 1024

// ZoneMap summarizes one block of one column for scan pruning: the
// minimum and maximum non-NULL cell (both value.Null when the block
// holds only NULLs or the column is mixed-kind) and whether any cell
// is NULL.
type ZoneMap struct {
	Min, Max value.Value
	HasNull  bool
	Rows     int
}

// CanPrune reports whether a block summarized by z can be skipped for
// the predicate "cell op lit": true only when no row of the block can
// satisfy it. NULL cells never satisfy a comparison, so a block may be
// pruned even when HasNull is set. It is conservative: absent or
// incomparable statistics keep the block.
func (z ZoneMap) CanPrune(op value.CmpOp, lit value.Value) bool {
	if z.Min.IsNull() || z.Max.IsNull() || lit.IsNull() {
		return false
	}
	cmin, okMin := value.Compare(z.Min, lit)
	cmax, okMax := value.Compare(z.Max, lit)
	if !okMin || !okMax {
		return false
	}
	switch op {
	case value.EQ:
		return cmin > 0 || cmax < 0
	case value.NE:
		return cmin == 0 && cmax == 0
	case value.LT:
		return cmin >= 0
	case value.LE:
		return cmin > 0
	case value.GT:
		return cmax <= 0
	case value.GE:
		return cmax < 0
	}
	return false
}

// Segment is an immutable packed-columnar image of rows of one table:
// the schema and every column as a relation.ColVec. Segments are what
// the durable store persists; zone maps are not part of one
// (Table.Zones builds them from the rows).
type Segment struct {
	Table  string
	Schema *relation.Schema
	Rows   int
	Cols   []*relation.ColVec
}

// BuildSegment packs rel into a segment.
func BuildSegment(table string, rel *relation.Relation) *Segment {
	s := &Segment{
		Table:  table,
		Schema: rel.Schema.Clone(),
		Rows:   len(rel.Rows),
		Cols:   make([]*relation.ColVec, rel.Schema.Len()),
	}
	for c := range s.Cols { // the cells decide the packed kind, NULLs alone the schema
		s.Cols[c] = relation.Coded(rel.Schema.Columns[c].Type)
		s.Cols[c].Append(rel.Rows, c)
	}
	return s
}

// add folds one non-NULL cell into the block's bounds.
func (z *ZoneMap) add(v value.Value) {
	if z.Min.IsNull() {
		z.Min, z.Max = v, v
	} else if c, ok := value.Compare(v, z.Min); ok && c < 0 {
		z.Min = v
	} else if c, ok := value.Compare(v, z.Max); ok && c > 0 {
		z.Max = v
	}
}

// colZones is one column's zone maps over a table's first rows rows,
// with the state extending them needs: the kind of the column's first
// non-NULL cell and whether a later cell had another.
type colZones struct {
	zones []ZoneMap
	rows  int
	kind  value.Kind
	mixed bool
}

// extend returns z brought up to rows, which has z's rows as a prefix:
// whole blocks z already covers are copied, everything from the last
// partial block on is computed from the rows. The result is a new
// slice, so a reader still holding z.zones is undisturbed. Blocks
// follow row positions (block b is rows [b*ZoneBlockRows, ...)), not
// the boundaries of whatever files persist the rows.
func (z colZones) extend(rows []relation.Tuple, col int) colZones {
	zones := make([]ZoneMap, (len(rows)+ZoneBlockRows-1)/ZoneBlockRows)
	whole := z.rows / ZoneBlockRows
	copy(zones, z.zones[:whole])
	for b := whole; b < len(zones); b++ {
		block := rows[b*ZoneBlockRows : min((b+1)*ZoneBlockRows, len(rows))]
		zm := ZoneMap{Rows: len(block)}
		for _, row := range block {
			v := row[col]
			if v.IsNull() {
				zm.HasNull = true
				continue
			}
			if z.kind == value.KindNull {
				z.kind = v.Kind()
			}
			z.mixed = z.mixed || v.Kind() != z.kind
			zm.add(v)
		}
		zones[b] = zm
	}
	if z.mixed { // what a segment stores Boxed: no bounds in any block
		for b := range zones {
			zones[b].Min, zones[b].Max = value.Null, value.Null
		}
	}
	z.zones, z.rows = zones, len(rows)
	return z
}

// Relation rebuilds the row-oriented relation the segment was packed
// from, cell for cell.
func (s *Segment) Relation() *relation.Relation {
	rel := relation.New(s.Schema.Clone())
	rel.Rows = s.appendRows(nil)
	return rel
}

// appendRows appends the segment's rows to dst. The tuples are cut out
// of one slab of cells, capacity clipped so that appending to one can
// never write into its neighbour: recovery allocates per segment, not
// per row.
func (s *Segment) appendRows(dst []relation.Tuple) []relation.Tuple {
	n := len(s.Cols)
	cells := make([]value.Value, s.Rows*n)
	for c, col := range s.Cols {
		for i := 0; i < s.Rows; i++ {
			cells[i*n+c] = col.Value(i)
		}
	}
	dst = slices.Grow(dst, s.Rows)
	for i := 0; i < s.Rows; i++ {
		dst = append(dst, cells[i*n:(i+1)*n:(i+1)*n])
	}
	return dst
}

// KeyHashes computes a GMDJ detail-key hash vector straight from the
// packed columns: for each row, value.FoldHash over the key columns,
// with ok=false (and hash 0) when any key cell is NULL. That is
// relation.Tuple.KeyHash applied column-wise, so the result is
// bit-identical to hashing the row-oriented tuples and the GMDJ can
// consume either interchangeably.
func (s *Segment) KeyHashes(key []int) (h []uint64, ok []bool) {
	h = make([]uint64, s.Rows)
	ok = make([]bool, s.Rows)
	for i := 0; i < s.Rows; i++ {
		acc := value.HashInit
		valid := true
		for _, c := range key {
			col := s.Cols[c]
			if col.Nulls[i] {
				valid = false
				break
			}
			acc = value.FoldHash(acc, col.Value(i))
		}
		if valid {
			h[i], ok[i] = acc, true
		}
	}
	return h, ok
}

// Column returns column col's typed vector over rows, the table's rows as
// a reader holds them (rows are only appended, see Table): built when a
// query first asks, then extended from the last row it covers, like
// Zones, never rebuilt; STRING cells dictionary-coded (relation.Coded).
// A vector handed out is never written again (a longer one writes past
// its end). Safe for concurrent readers.
func (t *Table) Column(col int, rows []relation.Tuple) *relation.ColVec {
	t.colMu.Lock()
	defer t.colMu.Unlock()
	if t.cols == nil {
		t.cols = make([]*relation.ColVec, t.Rel.Schema.Len())
	}
	if v := t.cols[col]; v == nil || v.Len() < len(rows) {
		var next relation.ColVec
		if v != nil {
			next = *v
		} else {
			next = *relation.Coded(t.Rel.Schema.Columns[col].Type)
		}
		next.Append(rows[next.Len():], col)
		t.cols[col] = &next
	}
	return t.cols[col].Prefix(len(rows))
}

// Segment returns a snapshot of the table's columns (Column) as a segment.
func (t *Table) Segment() *Segment {
	rows := t.Rel.Rows
	s := &Segment{Table: t.Name, Schema: t.Rel.Schema, Rows: len(rows), Cols: make([]*relation.ColVec, t.Rel.Schema.Len())}
	for c := range s.Cols {
		s.Cols[c] = t.Column(c, rows)
	}
	return s
}

// Zones returns the zone maps of column col over the table's rows as
// they are now, one per ZoneBlockRows rows: built from the rows for
// this column alone the first time it is asked for, and extended from
// the last whole block when the table has grown since (rows are only
// appended, see Table). Pruning a scan therefore never packs a segment,
// and an insert costs the next scan one block, not the table. Safe for
// concurrent readers.
func (t *Table) Zones(col int) []ZoneMap {
	t.colMu.Lock()
	defer t.colMu.Unlock()
	rows := t.Rel.Rows
	z := t.zones[col]
	if z.rows != len(rows) {
		if t.zones == nil {
			t.zones = map[int]colZones{}
		}
		z = z.extend(rows, col)
		t.zones[col] = z
	}
	return z.zones
}

// Quarantine marks the table's durable image corrupt: queries touching
// it fail with ErrSegmentCorrupt (see CheckQuarantine) while the rest
// of the catalog keeps serving.
func (t *Table) Quarantine(reason string) {
	t.quarantine.Store(&reason)
}

// QuarantineReason returns the quarantine reason, if the table is
// quarantined.
func (t *Table) QuarantineReason() (string, bool) {
	p := t.quarantine.Load()
	if p == nil {
		return "", false
	}
	return *p, true
}

// CheckQuarantine returns a typed ErrSegmentCorrupt error when the
// table is quarantined, nil otherwise. Scans call it before reading.
func (t *Table) CheckQuarantine() error {
	if reason, ok := t.QuarantineReason(); ok {
		return fmt.Errorf("storage: table %s: %w: %s", t.Name, ErrSegmentCorrupt, reason)
	}
	return nil
}
