package gmdj

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/govern"
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

// TestColumnsStaleIgnored: typed columns of another length than the
// detail (a table read at another moment) are not read: same results,
// no key hash counted as typed.
func TestColumnsStaleIgnored(t *testing.T) {
	base, detail := packedCorpus()
	conds := packedConds()
	want, err := Evaluate(base, detail, conds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	short := detailColumns(&relation.Relation{Schema: detail.Schema, Rows: detail.Rows[:detail.Len()/2]})
	var stats Stats
	got, err := Evaluate(base, detail, conds, Options{Stats: &stats, Columns: func(c int) *relation.ColVec { return short[c] }})
	if err != nil {
		t.Fatal(err)
	}
	if d := want.Diff(got); d != "" || stats.PackedHashConds != 0 {
		t.Fatalf("stale columns: PackedHashConds = %d, diff %s", stats.PackedHashConds, d)
	}
}

// TestColumnAllocsFlat: a hash-bound query whose detail is a stored
// table read through its typed vectors allocates as often, and about as
// many bytes, over four times the detail rows: nothing per detail row,
// so nothing is packed per query, and the pass's truth tables and
// position lists are pooled. The vectors are built by the first query
// over the table and only read after.
func TestColumnAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled vectors")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	base := relation.New(relation.NewSchema(relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt}))
	for i := 0; i < 64; i++ {
		base.Append(relation.Tuple{value.Int(int64(i % 20))})
	}
	bind := expr.Eq(expr.C("B.k"), expr.C("R.k"))
	conds := []algebra.GMDJCond{{
		Theta: expr.NewAnd(bind, expr.NewCmp(value.GT, expr.C("R.v"), expr.IntLit(30))),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Avg, Arg: expr.C("R.f"), As: "af"}},
	}, { // a selective leaf, then a dictionary's: truth table and position lists
		Theta: expr.NewAnd(bind, expr.NewCmp(value.GT, expr.C("R.f"), expr.IntLit(97)), expr.Eq(expr.C("R.tag"), expr.StrLit("odd"))),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "odd"}},
	}}
	measure := func(n int) (allocs, bytes float64) {
		tab := storage.NewTable("R", passDetail(n))
		eval := func() {
			var stats Stats
			opts := Options{Workers: 2, Stats: &stats, Columns: func(c int) *relation.ColVec { return tab.Column(c, tab.Rel.Rows) }}
			if _, err := Evaluate(base, tab.Rel, conds, opts); err != nil || stats.PackedHashConds != 2 {
				t.Fatalf("Evaluate: %v, PackedHashConds %d", err, stats.PackedHashConds)
			}
		}
		runtime.GC() // twice: empties the pools of vectors sized for other details
		runtime.GC()
		eval()
		allocs = testing.AllocsPerRun(10, eval)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			eval()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / 10
	}
	small, large := 2*govern.MorselRows+1, 8*govern.MorselRows+1
	sa, sb := measure(small)
	la, lb := measure(large)
	if la > sa || (lb-sb)/float64(large-small) > 0.5 {
		t.Errorf("%d rows: %v allocations, %.0f B; %d rows: %v allocations, %.0f B: the query allocates per detail row", small, sa, sb, large, la, lb)
	}
}

// TestColumnConcurrentAppend (for -race, at GOMAXPROCS 1 and 4): queries
// read a stored table's typed vectors over the rows they hold while a
// writer appends rows — the key column's kind changing partway — as the
// benchmark's stager does, Rel.Append then BumpVersion; the table is the
// detail of one GMDJ and the base of another, whose mixed conjuncts read
// its vectors (Options.BaseColumns). Every answer is the one over the
// same rows without the vectors.
func TestColumnConcurrentAppend(t *testing.T) {
	tab := storage.NewTable("R", passDetail(2*govern.MorselRows))
	base := relation.New(relation.NewSchema(relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt}))
	for i := 0; i < 30; i++ {
		base.Append(relation.Tuple{value.Int(int64(i))})
	}
	conds := []algebra.GMDJCond{{
		Theta: expr.NewAnd(expr.Eq(expr.C("B.k"), expr.C("R.k")), expr.Eq(expr.C("R.tag"), expr.StrLit("odd"))),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Sum, Arg: expr.C("R.f"), As: "sf"}},
	}}
	// The table as a base: its R.v and R.f against a small detail's.
	small := passDetail(40)
	mixed := []algebra.GMDJCond{{
		Theta: expr.NewAnd(expr.NewCmp(value.LT, expr.C("B.v"), expr.C("R.v")), expr.NewCmp(value.NE, expr.C("B.f"), expr.C("R.f"))),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
	}}
	var held atomic.Pointer[[]relation.Tuple]
	rows := tab.Rel.Rows
	held.Store(&rows)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rows := *held.Load()
				detail := &relation.Relation{Schema: tab.Rel.Schema, Rows: rows}
				want, err := Evaluate(base, detail, conds, Options{Workers: 2})
				if err != nil {
					t.Error(err)
					return
				}
				got, err := Evaluate(base, detail, conds, Options{Workers: 2, Columns: func(c int) *relation.ColVec { return tab.Column(c, rows) }})
				if err != nil || want.Diff(got) != "" {
					t.Errorf("%d rows: columns on and off differ: %v %s", len(rows), err, want.Diff(got))
					return
				}
				asBase := detail.Rename("B")
				want, err = Evaluate(asBase, small, mixed, Options{Workers: 2})
				if err != nil {
					t.Error(err)
					return
				}
				got, err = Evaluate(asBase, small, mixed, Options{Workers: 2, BaseColumns: func(c int) *relation.ColVec { return tab.Column(c, rows) }})
				if err != nil || want.Diff(got) != "" {
					t.Errorf("%d rows: base columns on and off differ: %v %s", len(rows), err, want.Diff(got))
					return
				}
			}
		}()
	}
	more := passDetail(3000).Rows
	for i := 0; i < 30; i++ {
		batch := more[i*100 : (i+1)*100]
		if i == 20 { // FLOAT keys from here on: R.k is boxed
			for _, row := range batch {
				if !row[0].IsNull() {
					row[0] = value.Float(float64(row[0].AsInt()))
				}
			}
		}
		for _, row := range batch {
			tab.Rel.Append(row)
		}
		tab.BumpVersion()
		rows := tab.Rel.Rows
		held.Store(&rows)
		time.Sleep(time.Millisecond)
	}
	close(done)
	wg.Wait()
	if v := tab.Column(0, tab.Rel.Rows); v.Boxed == nil {
		t.Error("R.k of INT and FLOAT keys is not boxed")
	}
}
