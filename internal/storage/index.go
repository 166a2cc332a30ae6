// Package storage provides named tables, secondary indexes, a catalog,
// CSV import/export, and the durable columnar tier. It is the engine's
// "disk" in both senses: the native evaluation strategy depends on the
// secondary indexes (the paper's Figure 5 contrasts indexed and
// unindexed native/join evaluation), while persistence keeps every
// table as a list of immutable columnar Segment files over consecutive
// row ranges — per-column blocks with dictionary/run-length encoding,
// written as FNV-checksummed GSPL frames — and commits them by an
// atomic, generation-numbered manifest (see DiskStore); tables only
// grow by append, so a checkpoint packs and writes the rows added
// since the last one. Per-block min/max zone maps are derived from the
// rows on demand and extended as the table grows (Table.Zones).
// Recovery quarantines a table with a corrupt or torn segment instead
// of failing: unaffected tables keep serving and queries touching a
// quarantined table return ErrSegmentCorrupt.
package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// HashIndex is an equality index over one column: a relation.HashIndex
// keyed by Tuple.KeyHash, the hash every strategy builds and probes with.
// Probes verify equality, so hash collisions are harmless. NULLs are not
// indexed (SQL equality never matches NULL).
type HashIndex struct {
	col   int
	rel   *relation.Relation
	index *relation.HashIndex
}

// NewHashIndex builds an index over column position col of rel.
func NewHashIndex(rel *relation.Relation, col int) *HashIndex {
	key := []int{col}
	return &HashIndex{col: col, rel: rel, index: relation.NewHashIndex(len(rel.Rows), func(i int) (uint64, bool) {
		return rel.Rows[i].KeyHash(key)
	})}
}

// Lookup returns the positions of rows whose indexed column equals v,
// in ascending order. Looking up NULL returns nothing.
func (ix *HashIndex) Lookup(v value.Value) []int {
	h, ok := relation.Tuple{v}.KeyHash([]int{0})
	if !ok {
		return nil
	}
	var out []int
	cand := ix.index.Bucket(h)
	for _, e := range cand {
		if e.Hash != h || !value.Equal(ix.rel.Rows[e.Pos][ix.col], v) {
			continue
		}
		if out == nil {
			out = make([]int, 0, len(cand))
		}
		out = append(out, int(e.Pos))
	}
	return out
}

// Column returns the indexed column position.
func (ix *HashIndex) Column() int { return ix.col }

// SortedIndex orders row positions by one column, enabling range scans
// for non-equality correlation predicates in the native strategy.
// NULLs sort first and are excluded from range results.
type SortedIndex struct {
	col   int
	rel   *relation.Relation
	order []int // row positions sorted by column value, NULLs first
	nulls int   // count of leading NULL entries
}

// NewSortedIndex builds a sorted index over column position col.
func NewSortedIndex(rel *relation.Relation, col int) *SortedIndex {
	ix := &SortedIndex{col: col, rel: rel, order: make([]int, len(rel.Rows))}
	for i := range ix.order {
		ix.order[i] = i
	}
	sort.SliceStable(ix.order, func(a, b int) bool {
		va, vb := rel.Rows[ix.order[a]][col], rel.Rows[ix.order[b]][col]
		if va.IsNull() {
			return !vb.IsNull()
		}
		if vb.IsNull() {
			return false
		}
		c, _ := value.Compare(va, vb)
		return c < 0
	})
	for _, pos := range ix.order {
		if !rel.Rows[pos][col].IsNull() {
			break
		}
		ix.nulls++
	}
	return ix
}

// Range returns the positions of rows whose column value v satisfies
// lo ≤/< v ≤/< hi. A NULL bound means unbounded on that side. NULL
// cells never match.
func (ix *SortedIndex) Range(lo value.Value, loIncl bool, hi value.Value, hiIncl bool) []int {
	vals := ix.order[ix.nulls:]
	at := func(i int) value.Value { return ix.rel.Rows[vals[i]][ix.col] }
	start := 0
	if !lo.IsNull() {
		start = sort.Search(len(vals), func(i int) bool {
			c, _ := value.Compare(at(i), lo)
			if loIncl {
				return c >= 0
			}
			return c > 0
		})
	}
	end := len(vals)
	if !hi.IsNull() {
		end = sort.Search(len(vals), func(i int) bool {
			c, _ := value.Compare(at(i), hi)
			if hiIncl {
				return c > 0
			}
			return c >= 0
		})
	}
	if start >= end {
		return nil
	}
	out := make([]int, end-start)
	copy(out, vals[start:end])
	return out
}

// Table is a named relation plus its secondary indexes. Index presence
// is part of the experimental setup: benchmarks drop indexes to study
// strategy stability, exactly as the paper does.
//
// Rows are only ever appended: a writer adds rows to Rel and calls
// BumpVersion, and nothing rewrites, reorders or removes a row already
// there (a table that must change any other way is re-created under a
// new id). The zone maps (Zones), the lagging indexes (refreshIndexes)
// and the durable store, which persists only the rows beyond those it
// has committed (DiskStore.Checkpoint), all rest on this.
type Table struct {
	Name string
	Rel  *relation.Relation

	// idxMu guards the secondary indexes, which concurrent read-only
	// queries may refresh; idxVersion records which table version they
	// reflect, so rows appended since are indexed before the next lookup
	// (refreshIndexes) instead of being invisible to it.
	idxMu      sync.Mutex
	hashIdx    map[string]*HashIndex
	sortedIdx  map[string]*SortedIndex
	idxVersion uint64

	// id is the process-unique identity assigned at registration;
	// version counts data and index mutations. Cache keys embed
	// "t<id>v<version>", so any write makes older entries unreachable.
	id      uint64
	version atomic.Uint64
	// cat is the owning catalog (nil before registration), whose epochs
	// this table's writes and index changes move.
	cat *Catalog

	// colMu guards the lazily built per-column typed vectors and zone
	// maps, each of which records the rows it covers.
	colMu sync.Mutex
	cols  []*relation.ColVec
	zones map[int]colZones

	// quarantine, when set, records why the table's durable segment
	// failed recovery; queries touching the table fail with
	// ErrSegmentCorrupt until it is rewritten.
	quarantine atomic.Pointer[string]
}

// NewTable wraps a relation as a named table.
func NewTable(name string, rel *relation.Relation) *Table {
	return &Table{
		Name:      name,
		Rel:       rel,
		hashIdx:   make(map[string]*HashIndex),
		sortedIdx: make(map[string]*SortedIndex),
	}
}

// BuildHashIndex creates (or rebuilds) a hash index over the named
// column.
func (t *Table) BuildHashIndex(col string) error {
	pos, err := t.Rel.Schema.Find("", col)
	if err != nil {
		return fmt.Errorf("storage: table %s: %w", t.Name, err)
	}
	t.changeIndexes(func() { t.hashIdx[col] = NewHashIndex(t.Rel, pos) })
	return nil
}

// BuildSortedIndex creates (or rebuilds) a sorted index over the named
// column.
func (t *Table) BuildSortedIndex(col string) error {
	pos, err := t.Rel.Schema.Find("", col)
	if err != nil {
		return fmt.Errorf("storage: table %s: %w", t.Name, err)
	}
	t.changeIndexes(func() { t.sortedIdx[col] = NewSortedIndex(t.Rel, pos) })
	return nil
}

// HashIndexOn returns the hash index on col, if one exists, covering
// every row the table holds now.
func (t *Table) HashIndexOn(col string) (*HashIndex, bool) {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	t.refreshIndexes()
	ix, ok := t.hashIdx[col]
	return ix, ok
}

// SortedIndexOn returns the sorted index on col, if one exists,
// covering every row the table holds now.
func (t *Table) SortedIndexOn(col string) (*SortedIndex, bool) {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	t.refreshIndexes()
	ix, ok := t.sortedIdx[col]
	return ix, ok
}

// DropIndexes removes all secondary indexes (for the unindexed
// benchmark variants).
func (t *Table) DropIndexes() {
	t.changeIndexes(func() {
		t.hashIdx = make(map[string]*HashIndex)
		t.sortedIdx = make(map[string]*SortedIndex)
	})
}

// refreshIndexes rebuilds every index when the table was written after
// they were built. Writers only append rows and bump the version, so
// an index can lag the data but never otherwise disagree with it.
// Callers hold idxMu.
func (t *Table) refreshIndexes() {
	v := t.version.Load()
	if v == t.idxVersion {
		return
	}
	for col, ix := range t.hashIdx {
		t.hashIdx[col] = NewHashIndex(t.Rel, ix.col)
	}
	for col, ix := range t.sortedIdx {
		t.sortedIdx[col] = NewSortedIndex(t.Rel, ix.col)
	}
	t.idxVersion = v
}

// changeIndexes applies one change to the index set. Index changes
// bump the table version like data writes do, so the indexes are
// brought up to date first and marked current again after the bump;
// and, unlike data writes, they move the catalog's schema epoch:
// compiled plans freeze access-path choices.
func (t *Table) changeIndexes(change func()) {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	t.refreshIndexes()
	change()
	t.BumpVersion()
	t.idxVersion = t.version.Load()
	if t.cat != nil {
		t.cat.schemaEpoch.Add(1)
	}
}

// ID returns the table's process-unique identity (0 before the table
// is registered in a catalog).
func (t *Table) ID() uint64 { return t.id }

// Version returns the table's mutation counter.
func (t *Table) Version() uint64 { return t.version.Load() }

// Append is the one way rows enter a table: every row is checked
// against the schema's width and column kinds (an INT widens into a
// FLOAT column, in place) before the first is appended, so a rejected
// batch leaves the table — rows, version, epochs — untouched; then the
// rows are appended and the version bumped.
func (t *Table) Append(rows []relation.Tuple) error {
	cols := t.Rel.Schema.Columns
	for ri, row := range rows {
		if len(row) != len(cols) {
			return fmt.Errorf("storage: row %d has %d values, table %q has %d columns", ri+1, len(row), t.Name, len(cols))
		}
		for i, v := range row {
			switch want := cols[i].Type; {
			case v.IsNull() || want == value.KindNull || v.Kind() == want:
			case want == value.KindFloat && v.Kind() == value.KindInt:
				row[i] = value.Float(float64(v.AsInt()))
			default:
				return fmt.Errorf("storage: row %d column %q: cannot store %v into %v", ri+1, cols[i].Name, v.Kind(), want)
			}
		}
	}
	if len(rows) > 0 {
		t.Rel.Rows = append(t.Rel.Rows, rows...)
		t.BumpVersion()
	}
	return nil
}

// BumpVersion records a data or index mutation: it advances the
// table's version (so the next checkpoint rewrites it) and the owning
// catalog's write epoch (so the next query checkpoints). Compiled plans name tables, not rows, and stay valid.
func (t *Table) BumpVersion() {
	t.version.Add(1)
	if t.cat != nil {
		t.cat.writeEpoch.Add(1)
	}
}
