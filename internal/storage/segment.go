package storage

import (
	"fmt"

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

// Segment is an immutable packed-columnar image of one table: the
// schema, every column as a ColVec, and per-block zone maps. Segments
// are what the durable store persists and what the executor's
// batch-oriented scan and the GMDJ's detail-key hashing read.
type Segment struct {
	Table  string
	Schema *relation.Schema
	Rows   int
	Cols   []*ColVec
	// Zones holds one zone-map slice per column; all columns share the
	// same block boundaries (ZoneBlockRows).
	Zones [][]ZoneMap
}

// BuildSegment packs rel into a segment.
func BuildSegment(table string, rel *relation.Relation) *Segment {
	s := &Segment{
		Table:  table,
		Schema: rel.Schema.Clone(),
		Rows:   len(rel.Rows),
		Cols:   make([]*ColVec, rel.Schema.Len()),
	}
	for c := range s.Cols {
		s.Cols[c] = buildColVec(rel, c)
	}
	s.buildZones()
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

// buildZones computes the per-block min/max statistics from the packed
// columns. Zone maps are derived data: never persisted, always rebuilt
// (BuildSegment and decodeSegment both end here), so disk corruption
// cannot desynchronize them from the cells.
func (s *Segment) buildZones() {
	s.Zones = make([][]ZoneMap, len(s.Cols))
	nblocks := (s.Rows + ZoneBlockRows - 1) / ZoneBlockRows
	for ci, col := range s.Cols {
		zones := make([]ZoneMap, nblocks)
		for b := range zones {
			lo := b * ZoneBlockRows
			hi := min(lo+ZoneBlockRows, s.Rows)
			z := ZoneMap{Rows: hi - lo}
			for i := lo; i < hi; i++ {
				if col.Nulls[i] {
					z.HasNull = true
				} else if col.Boxed == nil {
					// Mixed columns keep no min/max: cross-kind Compare
					// is partial, so the stats could be unsound.
					z.add(col.Value(i))
				}
			}
			zones[b] = z
		}
		s.Zones[ci] = zones
	}
}

// rowZones is buildZones for one column of row-oriented tuples: the
// zone maps a segment packed from rows would carry for column col.
func rowZones(rows []relation.Tuple, col int) []ZoneMap {
	zones := make([]ZoneMap, (len(rows)+ZoneBlockRows-1)/ZoneBlockRows)
	kind, mixed := value.KindNull, false
	for b := range zones {
		block := rows[b*ZoneBlockRows : min((b+1)*ZoneBlockRows, len(rows))]
		z := ZoneMap{Rows: len(block)}
		for _, row := range block {
			v := row[col]
			if v.IsNull() {
				z.HasNull = true
				continue
			}
			if kind == value.KindNull {
				kind = v.Kind()
			}
			mixed = mixed || v.Kind() != kind
			z.add(v)
		}
		zones[b] = z
	}
	if mixed { // what buildColVec stores Boxed
		for b := range zones {
			zones[b].Min, zones[b].Max = value.Null, value.Null
		}
	}
	return zones
}

// NumBlocks returns how many zone-map blocks the segment spans.
func (s *Segment) NumBlocks() int {
	return (s.Rows + ZoneBlockRows - 1) / ZoneBlockRows
}

// Relation rebuilds the row-oriented relation the segment was packed
// from, cell for cell. Used by recovery to repopulate the catalog.
func (s *Segment) Relation() *relation.Relation {
	rel := relation.New(s.Schema.Clone())
	for i := 0; i < s.Rows; i++ {
		row := make(relation.Tuple, len(s.Cols))
		for c, col := range s.Cols {
			row[c] = col.Value(i)
		}
		rel.Append(row)
	}
	return rel
}

// KeyHashes computes the GMDJ detail-key hash vector straight from the
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

// Segment returns the table's packed columnar image, built lazily and
// cached until the table's version changes (any insert or index
// mutation). Safe for concurrent readers.
func (t *Table) Segment() *Segment {
	t.segMu.Lock()
	defer t.segMu.Unlock()
	v := t.Version()
	if t.seg == nil || t.segVersion != v {
		t.seg = BuildSegment(t.Name, t.Rel)
		t.segVersion = v
	}
	return t.seg
}

// Zones returns the zone maps of column col over the table's rows as
// they are at its current version, one per ZoneBlockRows rows: the
// resident segment's when it is current, otherwise built from the rows
// for this column alone and kept until the version moves. Pruning a
// scan therefore never packs a segment. Safe for concurrent readers.
func (t *Table) Zones(col int) []ZoneMap {
	t.segMu.Lock()
	defer t.segMu.Unlock()
	v := t.Version()
	if t.seg != nil && t.segVersion == v {
		return t.seg.Zones[col]
	}
	if t.zones == nil || t.zonesVersion != v {
		t.zones, t.zonesVersion = map[int][]ZoneMap{}, v
	}
	z, ok := t.zones[col]
	if !ok {
		z = rowZones(t.Rel.Rows, col)
		t.zones[col] = z
	}
	return z
}

// setSegment seeds the cache with a freshly decoded segment (recovery:
// the segment IS the source of the relation, so rebuilding it would be
// wasted work).
func (t *Table) setSegment(s *Segment) {
	t.segMu.Lock()
	defer t.segMu.Unlock()
	t.seg = s
	t.segVersion = t.Version()
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
