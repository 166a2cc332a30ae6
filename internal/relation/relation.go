package relation

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/olaplab/gmdj/internal/value"
)

// Tuple is one row: a slice of values positionally aligned with a
// schema.
type Tuple []value.Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Concat returns t followed by o as a new tuple.
func (t Tuple) Concat(o Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(o))
	out = append(out, t...)
	out = append(out, o...)
	return out
}

// Equal reports structural equality (NULL == NULL).
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !value.Equal(t[i], o[i]) {
			return false
		}
	}
	return true
}

// Hash folds the hashes of all values (NULLs included); Equal tuples
// hash alike.
func (t Tuple) Hash() uint64 {
	h := value.HashInit
	for _, v := range t {
		h = value.FoldHash(h, v)
	}
	return h
}

// KeyHash hashes the cells at cols as an equality key: ok is false when
// any of them is NULL, which never matches through equality. Hash-join
// build and probe, the GMDJ base index and its detail probe, and
// storage.HashIndex all hash through here, and storage.Segment.KeyHashes
// applies the same fold to packed columns
// (TestPackedHashSegmentMatchesRowHash). An empty key hashes every row
// alike.
func (t Tuple) KeyHash(cols []int) (h uint64, ok bool) {
	h = value.HashInit
	for _, c := range cols {
		if t[c].IsNull() {
			return 0, false
		}
		h = value.FoldHash(h, t[c])
	}
	return h, true
}

// HashIndex is the engine's one hash index, behind the GMDJ's base
// index, the hash join's build side and storage.HashIndex. It holds
// positions by key hash in flat arrays, bucket b's entries being
// ents[off[b]:off[b+1]]. A bucket is the top bits of the hash times a
// Fibonacci constant, so hashes that share their top bits (a routed GMDJ
// partition's) or differ only in their low bits still spread. Buckets
// are shared by distinct hashes: a prober skips the entries whose Hash
// is not its own, and those past the bucket's live end (Retire).
type HashIndex struct {
	shift uint
	off   []int32
	ents  []HashEntry
	live  []int32 // bucket b's live end; empty until Retire: every bucket whole
}

// HashEntry is one indexed position and its key hash.
type HashEntry struct {
	Hash uint64
	Pos  int32
}

// entPool recycles NewHashIndex's unplaced entries, so a build allocates
// only the index it returns.
var entPool = sync.Pool{New: func() any { return new([]HashEntry) }}

// NewHashIndex indexes positions 0..n-1 under key(i), leaving out a
// position whose ok is false (a NULL key). It is a counting sort: a
// bucket lists its positions in ascending order.
func NewHashIndex(n int, key func(i int) (h uint64, ok bool)) *HashIndex {
	return new(HashIndex).Build(n, key)
}

// Build is NewHashIndex into ix, reusing its arrays, which an index
// built before (and no longer read) leaves there; it returns ix.
func (ix *HashIndex) Build(n int, key func(i int) (h uint64, ok bool)) *HashIndex {
	nb, bp := bits.Len(uint(n)), entPool.Get().(*[]HashEntry)
	ix.shift, ix.off, ix.live = uint(64-nb), slices.Grow(ix.off[:0], 1<<nb+1)[:1<<nb+1], ix.live[:0]
	clear(ix.off)
	ents := slices.Grow((*bp)[:0], n)
	for i := 0; i < n; i++ {
		if h, ok := key(i); ok {
			ents = append(ents, HashEntry{h, int32(i)})
			ix.off[ix.bucket(h)]++
		}
	}
	// Counts become ends; placing from the back moves each to its start.
	for b := 1; b < len(ix.off); b++ {
		ix.off[b] += ix.off[b-1]
	}
	ix.ents = slices.Grow(ix.ents[:0], len(ents))[:len(ents)]
	for k := len(ents) - 1; k >= 0; k-- {
		b := ix.bucket(ents[k].Hash)
		ix.off[b], ix.ents[ix.off[b]-1] = ix.off[b]-1, ents[k]
	}
	*bp = ents
	entPool.Put(bp)
	return ix
}

func (ix *HashIndex) bucket(h uint64) int { return int(h * 0x9E3779B97F4A7C15 >> ix.shift) }

// Bucket returns the live entries that share h's bucket, in ascending
// position; only those whose Hash equals h can match.
func (ix *HashIndex) Bucket(h uint64) []HashEntry {
	b := ix.bucket(h)
	if len(ix.live) > 0 {
		return ix.ents[ix.off[b]:ix.live[b]]
	}
	return ix.ents[ix.off[b]:ix.off[b+1]]
}

// Retire moves the entries of h's bucket that live reports false past its
// live end, the rest in order; never mid-walk, which would skip entries.
func (ix *HashIndex) Retire(h uint64, live []bool) {
	if len(ix.live) == 0 {
		ix.live = append(ix.live, ix.off[1:]...)
	}
	b := ix.bucket(h)
	w := ix.off[b]
	for k := w; k < ix.live[b]; k++ {
		if e := ix.ents[k]; live[e.Pos] {
			ix.ents[k], ix.ents[w] = ix.ents[w], e
			w++
		}
	}
	ix.live[b] = w
}

// valueSize is one cell's struct size, taken from the type so that a
// layout change in package value moves every estimate with it.
var valueSize = int64(reflect.TypeFor[value.Value]().Size())

// ApproxBytes estimates the in-memory footprint of the tuple: slice
// header, per-value struct size, and string payloads. Query governance
// charges this amount against the memory budget at relation-append
// time; it is an estimate (map/index overhead is not modeled), which
// is all a budget needs.
func (t Tuple) ApproxBytes() int64 {
	const sliceHeader = 24 // ptr + len + cap
	n := sliceHeader + int64(len(t))*valueSize
	for _, v := range t {
		if v.Kind() == value.KindString {
			n += int64(len(v.AsString()))
		}
	}
	return n
}

// Key encodes the tuple as a map key for exact grouping (DISTINCT,
// GROUP BY, set operations): the concatenation of each
// cell's value.AppendKey form. That form is self-delimiting and
// canonical, so Key is collision-free and two tuples share a Key exactly
// when Equal holds — INT 1 ≡ FLOAT 1.0 and -0.0 ≡ 0.0, as under = and
// IN (TestKeyConsistentWithEqual). The only allocation is the returned
// string unless the key outgrows the stack buffer.
func (t Tuple) Key() string {
	var stack [128]byte
	b := stack[:0]
	for _, v := range t {
		b = value.AppendKey(b, v)
	}
	return string(b)
}

// String renders the tuple as "[a, b, c]".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Relation is a materialized bag of tuples with a schema. Operators
// exchange Relations when pipelining is not possible (e.g. the GMDJ's
// base-values argument must be materialized by definition).
type Relation struct {
	Schema *Schema
	Rows   []Tuple
}

// New creates an empty relation with the given schema.
func New(s *Schema) *Relation {
	return &Relation{Schema: s}
}

// Append adds a row. The row length must match the schema; this is the
// engine's single structural invariant and is checked eagerly.
func (r *Relation) Append(t Tuple) {
	if len(t) != r.Schema.Len() {
		panic(fmt.Sprintf("relation: row width %d does not match schema width %d", len(t), r.Schema.Len()))
	}
	r.Rows = append(r.Rows, t)
}

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.Rows) }

// Clone deep-copies the relation (schema shared structurally, rows
// copied).
func (r *Relation) Clone() *Relation {
	out := &Relation{Schema: r.Schema.Clone(), Rows: make([]Tuple, len(r.Rows))}
	for i, t := range r.Rows {
		out.Rows[i] = t.Clone()
	}
	return out
}

// Rename returns a shallow copy whose schema qualifiers are replaced by
// alias. Rows are shared: renaming is metadata-only, as in the algebra.
func (r *Relation) Rename(alias string) *Relation {
	return &Relation{Schema: r.Schema.Rename(alias), Rows: r.Rows}
}

// canonicalRows returns each row's exact encoding and the row order
// that sorts them, for order-insensitive comparison. Unlike Key it
// keeps the kind — INT 3 and FLOAT 3.0 differ, so a strategy that
// changes a result cell's kind fails the oracle — and folds only -0.0
// into 0.0, which compare equal and may legitimately come out either
// way.
func (r *Relation) canonicalRows() (keys []string, order []int) {
	keys, order = make([]string, len(r.Rows)), make([]int, len(r.Rows))
	var b []byte
	for i, t := range r.Rows {
		b = b[:0]
		for _, v := range t {
			if v.Kind() == value.KindFloat && v.AsFloat() == 0 {
				v = value.Float(0)
			}
			b = value.AppendBinary(b, v)
		}
		keys[i], order[i] = string(b), i
	}
	sort.Slice(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
	return keys, order
}

// EqualBag reports whether two relations contain the same bag of rows,
// ignoring order and schema qualifiers (but requiring equal width).
// This is the equivalence the paper's correctness claims are about: all
// evaluation strategies must yield the same bag.
func (r *Relation) EqualBag(o *Relation) bool { return r.Diff(o) == "" }

// Diff describes the first difference between two relations as a
// human-readable string, or "" when EqualBag holds. Useful in tests.
func (r *Relation) Diff(o *Relation) string {
	if r.Schema.Len() != o.Schema.Len() {
		return fmt.Sprintf("width mismatch: %d vs %d", r.Schema.Len(), o.Schema.Len())
	}
	if len(r.Rows) != len(o.Rows) {
		return fmt.Sprintf("row count mismatch: %d vs %d", len(r.Rows), len(o.Rows))
	}
	a, ai := r.canonicalRows()
	b, bi := o.canonicalRows()
	for i := range ai {
		if a[ai[i]] != b[bi[i]] {
			return fmt.Sprintf("row %d differs: %v vs %v", i, r.Rows[ai[i]], o.Rows[bi[i]])
		}
	}
	return ""
}

// String renders the relation as an aligned text table (header + rows),
// truncated at 50 rows for sanity in logs.
func (r *Relation) String() string {
	var b strings.Builder
	headers := make([]string, r.Schema.Len())
	widths := make([]int, r.Schema.Len())
	for i, c := range r.Schema.Columns {
		headers[i] = c.QualifiedName()
		widths[i] = len(headers[i])
	}
	limit := len(r.Rows)
	const maxRows = 50
	if limit > maxRows {
		limit = maxRows
	}
	cells := make([][]string, limit)
	for i := 0; i < limit; i++ {
		row := make([]string, r.Schema.Len())
		for j, v := range r.Rows[i] {
			row[j] = v.String()
			if len(row[j]) > widths[j] {
				widths[j] = len(row[j])
			}
		}
		cells[i] = row
	}
	writeRow := func(parts []string) {
		for j, p := range parts {
			if j > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(p)
			for k := len(p); k < widths[j]; k++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	for j := range headers {
		if j > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", widths[j]))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	if len(r.Rows) > maxRows {
		fmt.Fprintf(&b, "... (%d more rows)\n", len(r.Rows)-maxRows)
	}
	return b.String()
}
