package storage

import (
	"bytes"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

func sampleRel() *relation.Relation {
	s := relation.NewSchema(
		relation.Column{Name: "id", Type: value.KindInt},
		relation.Column{Name: "name", Type: value.KindString},
		relation.Column{Name: "score", Type: value.KindFloat},
	)
	r := relation.New(s)
	r.Append(relation.Tuple{value.Int(1), value.Str("ann"), value.Float(1.5)})
	r.Append(relation.Tuple{value.Int(2), value.Str("bob"), value.Null})
	r.Append(relation.Tuple{value.Int(3), value.Str("cat"), value.Float(-2)})
	r.Append(relation.Tuple{value.Int(2), value.Str("dup"), value.Float(0)})
	r.Append(relation.Tuple{value.Null, value.Str("nil"), value.Float(9)})
	return r
}

func TestHashIndexLookup(t *testing.T) {
	r := sampleRel()
	ix := NewHashIndex(r, 0)
	got := ix.Lookup(value.Int(2))
	if len(got) != 2 {
		t.Fatalf("Lookup(2) = %v, want 2 rows", got)
	}
	for _, pos := range got {
		if r.Rows[pos][0].AsInt() != 2 {
			t.Errorf("row %d has wrong key", pos)
		}
	}
	if ix.Lookup(value.Int(99)) != nil {
		t.Error("Lookup(99) should be empty")
	}
	if ix.Lookup(value.Null) != nil {
		t.Error("Lookup(NULL) must be empty — SQL equality never matches NULL")
	}
	if ix.Column() != 0 {
		t.Error("Column()")
	}

	// Equal keys of either kind find each other; NaN finds only NaN.
	num := relation.New(relation.NewSchema(relation.Column{Name: "k", Type: value.KindFloat}))
	for _, v := range []value.Value{value.Int(1), value.Float(1), value.Float(0), value.Float(math.Copysign(0, -1)),
		value.Float(math.NaN()), value.Null, value.Int(2), value.Float(math.NaN())} {
		num.Append(relation.Tuple{v})
	}
	ix = NewHashIndex(num, 0)
	for _, c := range []struct {
		key  value.Value
		want []int
	}{
		{value.Int(1), []int{0, 1}},
		{value.Float(1), []int{0, 1}},
		{value.Float(0), []int{2, 3}},
		{value.Float(math.Copysign(0, -1)), []int{2, 3}},
		{value.Int(0), []int{2, 3}},
		{value.Float(math.NaN()), []int{4, 7}},
		{value.Float(2), []int{6}},
		{value.Int(3), nil},
	} {
		if got := ix.Lookup(c.key); !slices.Equal(got, c.want) {
			t.Errorf("Lookup(%v) = %v, want %v", c.key, got, c.want)
		}
	}

	// String keys, and rows appended since the index was built.
	tbl := NewTable("t", sampleRel())
	if err := tbl.BuildHashIndex("name"); err != nil {
		t.Fatal(err)
	}
	sx, _ := tbl.HashIndexOn("name")
	if got := sx.Lookup(value.Str("bob")); !slices.Equal(got, []int{1}) {
		t.Errorf("Lookup(bob) = %v, want [1]", got)
	}
	if got := sx.Lookup(value.Str("Bob")); got != nil {
		t.Errorf("Lookup(Bob) = %v, want nothing", got)
	}
	if err := tbl.Append([]relation.Tuple{{value.Int(6), value.Str("bob"), value.Null}}); err != nil {
		t.Fatal(err)
	}
	tbl.BumpVersion()
	sx, _ = tbl.HashIndexOn("name")
	if got := sx.Lookup(value.Str("bob")); !slices.Equal(got, []int{1, 5}) {
		t.Errorf("after Append, Lookup(bob) = %v, want [1 5]", got)
	}
}

func TestSortedIndexRange(t *testing.T) {
	r := sampleRel()
	ix := NewSortedIndex(r, 0) // ids: NULL,1,2,2,3
	ids := func(pos []int) []int64 {
		out := make([]int64, len(pos))
		for i, p := range pos {
			out[i] = r.Rows[p][0].AsInt()
		}
		return out
	}
	got := ids(ix.Range(value.Int(2), true, value.Null, false))
	if len(got) != 3 {
		t.Fatalf(">=2 gave %v", got)
	}
	got = ids(ix.Range(value.Int(2), false, value.Null, false))
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf(">2 gave %v", got)
	}
	got = ids(ix.Range(value.Null, false, value.Int(2), false))
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("<2 gave %v", got)
	}
	got = ids(ix.Range(value.Int(1), true, value.Int(2), true))
	if len(got) != 3 {
		t.Fatalf("[1,2] gave %v", got)
	}
	// Unbounded both sides returns all non-NULL.
	if got := ix.Range(value.Null, false, value.Null, false); len(got) != 4 {
		t.Fatalf("unbounded gave %d rows, want 4 (NULL excluded)", len(got))
	}
	// Empty range.
	if got := ix.Range(value.Int(10), true, value.Int(20), true); got != nil {
		t.Fatalf("empty range gave %v", got)
	}
}

func TestSortedIndexRangeProperty(t *testing.T) {
	f := func(raw []int64, lo, hi int64) bool {
		s := relation.NewSchema(relation.Column{Name: "x", Type: value.KindInt})
		r := relation.New(s)
		for _, x := range raw {
			r.Append(relation.Tuple{value.Int(x % 50)})
		}
		if lo %= 50; lo < 0 {
			lo = -lo
		}
		if hi %= 50; hi < 0 {
			hi = -hi
		}
		ix := NewSortedIndex(r, 0)
		got := ix.Range(value.Int(lo), true, value.Int(hi), false)
		want := 0
		for _, x := range raw {
			if v := x % 50; v >= lo && v < hi {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableIndexManagement(t *testing.T) {
	tbl := NewTable("t", sampleRel())
	if err := tbl.BuildHashIndex("id"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.BuildSortedIndex("score"); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.HashIndexOn("id"); !ok {
		t.Error("hash index missing")
	}
	if _, ok := tbl.SortedIndexOn("score"); !ok {
		t.Error("sorted index missing")
	}
	if _, ok := tbl.HashIndexOn("name"); ok {
		t.Error("unexpected index")
	}
	tbl.DropIndexes()
	_, hashed := tbl.HashIndexOn("id")
	_, sorted := tbl.SortedIndexOn("score")
	if hashed || sorted {
		t.Error("DropIndexes left indexes behind")
	}
	if err := tbl.BuildHashIndex("missing"); err == nil {
		t.Error("indexing a missing column should fail")
	}
	if err := tbl.BuildSortedIndex("missing"); err == nil {
		t.Error("sorted-indexing a missing column should fail")
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	c.Register(NewTable("b", sampleRel()))
	c.Register(NewTable("a", sampleRel()))
	if _, err := c.Table("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Table("zz"); err == nil {
		t.Error("unknown table should error")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
	c.Drop("a")
	if _, err := c.Table("a"); err == nil {
		t.Error("dropped table still resolvable")
	}
	c.Drop("never-existed") // no-op must not panic
}

func TestCSVRoundTrip(t *testing.T) {
	r := sampleRel()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, r.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if d := r.Diff(back); d != "" {
		t.Errorf("round trip differs: %s", d)
	}
}

func TestCSVNullVsLiteralBackslashN(t *testing.T) {
	s := relation.NewSchema(relation.Column{Name: "s", Type: value.KindString})
	r := relation.New(s)
	r.Append(relation.Tuple{value.Null})
	r.Append(relation.Tuple{value.Str("plain")})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Rows[0][0].IsNull() {
		t.Error("NULL did not round-trip")
	}
	if back.Rows[1][0].AsString() != "plain" {
		t.Error("string did not round-trip")
	}
}

func TestCSVErrors(t *testing.T) {
	s := relation.NewSchema(relation.Column{Name: "id", Type: value.KindInt})
	cases := []struct{ name, in string }{
		{"bad header name", "wrong\n1\n"},
		{"bad header width", "id,extra\n1,2\n"},
		{"bad int", "id\nnope\n"},
		{"empty input", ""},
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c.in), s); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestCSVBoolAndFloatParsing(t *testing.T) {
	s := relation.NewSchema(
		relation.Column{Name: "b", Type: value.KindBool},
		relation.Column{Name: "f", Type: value.KindFloat},
	)
	in := "b,f\ntrue,2.5\nfalse,-1\n"
	r, err := ReadCSV(strings.NewReader(in), s)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Rows[0][0].AsBool() || r.Rows[0][1].AsFloat() != 2.5 {
		t.Error("row 0 parse wrong")
	}
	if r.Rows[1][0].AsBool() || r.Rows[1][1].AsFloat() != -1 {
		t.Error("row 1 parse wrong")
	}
	if _, err := ReadCSV(strings.NewReader("b,f\nmaybe,1\n"), s); err == nil {
		t.Error("bad bool should error")
	}
}

func TestSaveLoadDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cat := NewCatalog()
	cat.Register(NewTable("t1", sampleRel()))
	small := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "t2", Name: "b", Type: value.KindBool},
	))
	small.Append(relation.Tuple{value.Bool(true)})
	small.Append(relation.Tuple{value.Null})
	cat.Register(NewTable("t2", small))

	if err := SaveDir(cat, dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Names()) != 2 {
		t.Fatalf("Names = %v", back.Names())
	}
	t1, _ := cat.Table("t1")
	b1, err := back.Table("t1")
	if err != nil {
		t.Fatal(err)
	}
	if d := t1.Rel.Diff(b1.Rel); d != "" {
		t.Errorf("t1 differs after round trip: %s", d)
	}
	b2, _ := back.Table("t2")
	if !b2.Rel.Rows[1][0].IsNull() {
		t.Error("NULL bool lost in round trip")
	}
	// Types must survive (CSV alone cannot carry them).
	if b1.Rel.Schema.Columns[2].Type != value.KindFloat {
		t.Errorf("score column type = %v", b1.Rel.Schema.Columns[2].Type)
	}
}

func TestLoadDirErrors(t *testing.T) {
	if _, err := LoadDir("/definitely/missing/dir"); err == nil {
		t.Error("missing dir must error")
	}
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/bad.schema", []byte("onlyonefield\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err == nil {
		t.Error("malformed schema sidecar must error")
	}
	dir2 := t.TempDir()
	if err := os.WriteFile(dir2+"/x.schema", []byte("a WEIRD\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir2); err == nil {
		t.Error("unknown type must error")
	}
	dir3 := t.TempDir()
	if err := os.WriteFile(dir3+"/y.schema", []byte("a INT\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir3); err == nil {
		t.Error("missing csv must error")
	}
}
