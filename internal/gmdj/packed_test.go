package gmdj

import (
	"testing"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/storage"
	"github.com/olaplab/gmdj/internal/value"
)

// packedCorpus builds a base/detail pair with an equi-binding key that
// includes NULLs and duplicate values, so both the hash and the
// validity vector carry weight.
func packedCorpus() (*relation.Relation, *relation.Relation) {
	base := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
	))
	for i := int64(0); i < 40; i++ {
		base.Append(relation.Tuple{value.Int(i % 17)})
	}
	detail := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt},
		relation.Column{Qualifier: "R", Name: "tag", Type: value.KindString},
		relation.Column{Qualifier: "R", Name: "v", Type: value.KindInt},
	))
	for i := int64(0); i < 500; i++ {
		k := value.Int(i % 17)
		if i%13 == 0 {
			k = value.Null
		}
		tag := "even"
		if i%2 == 1 {
			tag = "odd"
		}
		detail.Append(relation.Tuple{k, value.Str(tag), value.Int(i)})
	}
	return base, detail
}

func packedConds() []algebra.GMDJCond {
	return []algebra.GMDJCond{{
		Theta: expr.Eq(expr.C("R.k"), expr.C("B.k")),
		Aggs: []agg.Spec{
			{Func: agg.CountStar, As: "cnt"},
			{Func: agg.Sum, Arg: expr.C("R.v"), As: "sv"},
		},
	}}
}

// TestPackedHashParity: supplying detail hashes from the packed
// columnar segment must yield results identical to row-oriented
// hashing, and the stat must record the packed path was taken.
func TestPackedHashParity(t *testing.T) {
	base, detail := packedCorpus()
	conds := packedConds()

	want, err := Evaluate(base, detail, conds, Options{})
	if err != nil {
		t.Fatal(err)
	}

	seg := storage.BuildSegment("R", detail)
	var stats Stats
	got, err := Evaluate(base, detail, conds, Options{
		Stats:      &stats,
		PackedHash: seg.KeyHashes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PackedHashConds != 1 {
		t.Fatalf("PackedHashConds = %d, want 1", stats.PackedHashConds)
	}
	if want.Len() != got.Len() {
		t.Fatalf("packed path returned %d rows, want %d", got.Len(), want.Len())
	}
	for i := range want.Rows {
		if !got.Rows[i].Equal(want.Rows[i]) {
			t.Fatalf("row %d: packed %v, row-hashed %v", i, got.Rows[i], want.Rows[i])
		}
	}
}

// TestPackedHashSegmentMatchesRowHash checks the vectors themselves:
// the segment's FNV mix must be bit-identical to hashing the
// row-oriented tuples, including multi-column keys and NULL validity.
func TestPackedHashSegmentMatchesRowHash(t *testing.T) {
	_, detail := packedCorpus()
	seg := storage.BuildSegment("R", detail)
	for _, key := range [][]int{{0}, {1}, {0, 1}, {2, 0}} {
		h, ok := seg.KeyHashes(key)
		if len(h) != detail.Len() || len(ok) != detail.Len() {
			t.Fatalf("key %v: vector lengths %d/%d, want %d", key, len(h), len(ok), detail.Len())
		}
		for i, row := range detail.Rows {
			wh, wok := row.KeyHash(key)
			if ok[i] != wok || (wok && h[i] != wh) {
				t.Fatalf("key %v row %d: packed (%#x,%v), row hash (%#x,%v)",
					key, i, h[i], ok[i], wh, wok)
			}
		}
	}
}

// TestPackedHashStaleSupplierFallsBack: a supplier whose vector length
// disagrees with the detail relation (a stale segment) must be ignored
// entirely — same results, zero packed conds counted.
func TestPackedHashStaleSupplierFallsBack(t *testing.T) {
	base, detail := packedCorpus()
	conds := packedConds()

	want, err := Evaluate(base, detail, conds, Options{})
	if err != nil {
		t.Fatal(err)
	}

	stale := relation.New(detail.Schema)
	for _, row := range detail.Rows[:detail.Len()/2] {
		stale.Append(row)
	}
	seg := storage.BuildSegment("R", stale)
	var stats Stats
	got, err := Evaluate(base, detail, conds, Options{
		Stats:      &stats,
		PackedHash: seg.KeyHashes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PackedHashConds != 0 {
		t.Fatalf("PackedHashConds = %d, want 0 for a stale supplier", stats.PackedHashConds)
	}
	if want.Len() != got.Len() {
		t.Fatalf("fallback returned %d rows, want %d", got.Len(), want.Len())
	}
	for i := range want.Rows {
		if !got.Rows[i].Equal(want.Rows[i]) {
			t.Fatalf("row %d: fallback %v, want %v", i, got.Rows[i], want.Rows[i])
		}
	}
}

// TestPackedHashSharedAcrossConds: coalesced subqueries probing the
// same binding (the Fig 5 tree_exists shape) hash the detail once —
// conditions with equal key columns share one supplier vector — while
// the counter still reports every condition served.
func TestPackedHashSharedAcrossConds(t *testing.T) {
	base, detail := packedCorpus()
	conds := append(packedConds(), algebra.GMDJCond{
		Theta: expr.NewAnd(expr.Eq(expr.C("R.k"), expr.C("B.k")), expr.Eq(expr.C("R.tag"), expr.StrLit("odd"))),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "odd"}},
	})
	want, err := Evaluate(base, detail, conds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seg := storage.BuildSegment("R", detail)
	calls := 0
	var stats Stats
	got, err := Evaluate(base, detail, conds, Options{
		Stats: &stats,
		PackedHash: func(key []int) ([]uint64, []bool) {
			calls++
			return seg.KeyHashes(key)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || stats.PackedHashConds != 2 {
		t.Errorf("supplier called %d times for PackedHashConds = %d; want 1 call serving 2 conditions", calls, stats.PackedHashConds)
	}
	if d := want.Diff(got); d != "" {
		t.Errorf("shared vector changed the result: %s", d)
	}
}
