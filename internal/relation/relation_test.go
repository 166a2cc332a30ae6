package relation

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/olaplab/gmdj/internal/value"
)

func testSchema() *Schema {
	return NewSchema(
		Column{Qualifier: "F", Name: "A", Type: value.KindInt},
		Column{Qualifier: "F", Name: "B", Type: value.KindString},
	)
}

func TestColumnQualifiedName(t *testing.T) {
	c := Column{Qualifier: "F", Name: "X"}
	if c.QualifiedName() != "F.X" {
		t.Errorf("got %q", c.QualifiedName())
	}
	c.Qualifier = ""
	if c.QualifiedName() != "X" {
		t.Errorf("got %q", c.QualifiedName())
	}
}

func TestSchemaFind(t *testing.T) {
	s := testSchema()
	if i, err := s.Find("F", "A"); err != nil || i != 0 {
		t.Errorf("Find(F.A) = %d, %v", i, err)
	}
	if i, err := s.Find("", "B"); err != nil || i != 1 {
		t.Errorf("Find(B) = %d, %v", i, err)
	}
	if _, err := s.Find("G", "A"); err == nil {
		t.Error("Find(G.A) should fail")
	}
	if _, err := s.Find("", "Z"); err == nil {
		t.Error("Find(Z) should fail")
	}
}

func TestSchemaFindAmbiguous(t *testing.T) {
	s := NewSchema(
		Column{Qualifier: "A", Name: "X", Type: value.KindInt},
		Column{Qualifier: "B", Name: "X", Type: value.KindInt},
	)
	if _, err := s.Find("", "X"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("bare X should be ambiguous, got %v", err)
	}
	if i, err := s.Find("B", "X"); err != nil || i != 1 {
		t.Errorf("qualified B.X should resolve, got %d %v", i, err)
	}
}

func TestSchemaConcatRename(t *testing.T) {
	s := testSchema()
	r := s.Rename("G")
	if r.Columns[0].Qualifier != "G" || r.Columns[1].Qualifier != "G" {
		t.Error("Rename did not replace qualifiers")
	}
	if s.Columns[0].Qualifier != "F" {
		t.Error("Rename mutated the original")
	}
	c := s.Concat(r)
	if c.Len() != 4 {
		t.Errorf("Concat length = %d", c.Len())
	}
	if c.Columns[2].Qualifier != "G" {
		t.Error("Concat order wrong")
	}
}

func TestSchemaEqual(t *testing.T) {
	a, b := testSchema(), testSchema()
	if !a.Equal(b) {
		t.Error("identical schemas not Equal")
	}
	if a.Equal(a.Rename("G")) {
		t.Error("renamed schema should differ")
	}
	if a.Equal(NewSchema(a.Columns[0])) {
		t.Error("different widths should differ")
	}
}

func TestSchemaString(t *testing.T) {
	got := testSchema().String()
	if got != "(F.A INT, F.B STRING)" {
		t.Errorf("String() = %q", got)
	}
}

func TestTupleBasics(t *testing.T) {
	tp := Tuple{value.Int(1), value.Str("x")}
	cl := tp.Clone()
	cl[0] = value.Int(2)
	if tp[0].AsInt() != 1 {
		t.Error("Clone shares storage")
	}
	cc := tp.Concat(Tuple{value.Bool(true)})
	if len(cc) != 3 || !cc[2].AsBool() {
		t.Error("Concat wrong")
	}
	if !tp.Equal(Tuple{value.Int(1), value.Str("x")}) {
		t.Error("Equal false negative")
	}
	if tp.Equal(Tuple{value.Int(1)}) {
		t.Error("Equal across widths")
	}
	if tp.String() != "[1, x]" {
		t.Errorf("String() = %q", tp.String())
	}
}

func TestTupleHashKeyConsistency(t *testing.T) {
	f := func(a, b int64, s string) bool {
		t1 := Tuple{value.Int(a), value.Str(s), value.Int(b)}
		t2 := Tuple{value.Int(a), value.Str(s), value.Int(b)}
		return t1.Hash() == t2.Hash() && t1.Key() == t2.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestKeyConsistentWithEqual is Key's contract: two tuples share a Key
// exactly when Equal holds, so DISTINCT, GROUP BY and the set operations
// (which group by Key) agree with =, IN, joins and the GMDJ (which
// compare and hash). The cells are the ones a textual or kind-tagged
// key gets wrong: INT/FLOAT twins up to ±2^53, signed zero, strings
// holding separators, digits and other cells' renderings.
func TestKeyConsistentWithEqual(t *testing.T) {
	pool := []value.Value{
		value.Null, value.Str("NULL"), value.Str(""),
		value.Int(0), value.Float(0), value.Float(math.Copysign(0, -1)),
		value.Int(1), value.Float(1), value.Str("1"), value.Str("11"), value.Float(1.5),
		value.Int(1 << 53), value.Float(1 << 53), value.Int(-(1 << 53)), value.Float(-(1 << 53)),
		value.Bool(true), value.Bool(false), value.Str("true"),
		value.Str("a\x1f3b"), value.Str("c"), value.Str("a"), value.Str("b\x1f3c"),
		value.Float(math.Inf(1)), value.Float(-1e300),
	}
	cell := func(r *rand.Rand) value.Value {
		switch r.Intn(4) {
		case 0:
			return value.Int(r.Int63n(1<<54) - 1<<53)
		case 1:
			return value.Float(float64(r.Int63n(1<<54) - 1<<53))
		}
		return pool[r.Intn(len(pool))]
	}
	// twin returns a differently represented cell Equal to v, if any.
	twin := func(v value.Value) value.Value {
		switch v.Kind() {
		case value.KindInt:
			return value.Float(float64(v.AsInt()))
		case value.KindFloat:
			if f := v.AsFloat(); f == math.Trunc(f) && math.Abs(f) <= 1<<53 {
				return value.Int(int64(f))
			}
		}
		return v
	}
	equalPairs := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := make(Tuple, 1+r.Intn(3))
		for i := range a {
			a[i] = cell(r)
		}
		b := make(Tuple, len(a), len(a)+1)
		for i, v := range a {
			switch r.Intn(4) {
			case 0:
				b[i] = cell(r)
			case 1:
				b[i] = v
			default:
				b[i] = twin(v)
			}
		}
		if r.Intn(8) == 0 {
			b = append(b, cell(r))
		}
		eq := a.Equal(b)
		if eq {
			equalPairs++
		}
		if (a.Key() == b.Key()) != eq {
			t.Logf("a=%v b=%v Equal=%v keys %q %q", a, b, eq, a.Key(), b.Key())
			return false
		}
		return !eq || a.Hash() == b.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	if equalPairs < 500 {
		t.Errorf("only %d Equal pairs generated; the ⇐ direction is under-tested", equalPairs)
	}
	// The two reproduced collisions, spelled out.
	if (Tuple{value.Str("a\x1f3b"), value.Str("c")}).Key() == (Tuple{value.Str("a"), value.Str("b\x1f3c")}).Key() {
		t.Error("separator inside a string collapses two distinct rows")
	}
	if (Tuple{value.Int(1)}).Key() != (Tuple{value.Float(1)}).Key() {
		t.Error("INT 1 and FLOAT 1.0 are Equal but Key apart")
	}
}

// TestKeyHashStable pins the key fold next to value's TestHashStable,
// and that Key costs one allocation (the string) for ordinary rows.
func TestKeyHashStable(t *testing.T) {
	row := Tuple{value.Str("pad"), value.Int(7), value.Str("FTP"), value.Float(0.5), value.Null}
	if h, ok := row.KeyHash([]int{1, 2, 3}); !ok || h != 0xd3983abab9376a7e {
		t.Errorf("KeyHash = %#x, %v; want 0xd3983abab9376a7e, true", h, ok)
	}
	if h, ok := row.KeyHash([]int{1, 4}); ok || h != 0 {
		t.Errorf("KeyHash over a NULL = %#x, %v; want 0, false", h, ok)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = row.Key() }); allocs > 1 {
		t.Errorf("Key allocates %v times per call, want at most 1", allocs)
	}
}

func TestTupleKeyDistinguishesKinds(t *testing.T) {
	a := Tuple{value.Int(1)}
	b := Tuple{value.Str("1")}
	if a.Key() == b.Key() {
		t.Error("Key must distinguish INT 1 from STRING \"1\"")
	}
	c := Tuple{value.Null}
	d := Tuple{value.Str("NULL")}
	if c.Key() == d.Key() {
		t.Error("Key must distinguish NULL from the string \"NULL\"")
	}
}

func TestRelationAppendPanicsOnWidth(t *testing.T) {
	r := New(testSchema())
	defer func() {
		if recover() == nil {
			t.Error("Append with wrong width must panic")
		}
	}()
	r.Append(Tuple{value.Int(1)})
}

func TestRelationCloneIndependence(t *testing.T) {
	r := New(testSchema())
	r.Append(Tuple{value.Int(1), value.Str("x")})
	c := r.Clone()
	c.Rows[0][0] = value.Int(9)
	if r.Rows[0][0].AsInt() != 1 {
		t.Error("Clone shares row storage")
	}
}

func TestRelationRenameSharesRows(t *testing.T) {
	r := New(testSchema())
	r.Append(Tuple{value.Int(1), value.Str("x")})
	rn := r.Rename("Z")
	if rn.Schema.Columns[0].Qualifier != "Z" {
		t.Error("Rename qualifier wrong")
	}
	if rn.Len() != 1 {
		t.Error("Rename lost rows")
	}
}

func TestEqualBagOrderInsensitive(t *testing.T) {
	a, b := New(testSchema()), New(testSchema())
	a.Append(Tuple{value.Int(1), value.Str("x")})
	a.Append(Tuple{value.Int(2), value.Str("y")})
	b.Append(Tuple{value.Int(2), value.Str("y")})
	b.Append(Tuple{value.Int(1), value.Str("x")})
	if !a.EqualBag(b) {
		t.Error("EqualBag should ignore order")
	}
	if d := a.Diff(b); d != "" {
		t.Errorf("Diff = %q, want empty", d)
	}
}

func TestEqualBagCountsDuplicates(t *testing.T) {
	a, b := New(testSchema()), New(testSchema())
	row := Tuple{value.Int(1), value.Str("x")}
	other := Tuple{value.Int(2), value.Str("y")}
	a.Append(row)
	a.Append(row.Clone())
	b.Append(row.Clone())
	b.Append(other)
	if a.EqualBag(b) {
		t.Error("EqualBag must respect multiplicities")
	}
	if a.Diff(b) == "" {
		t.Error("Diff should report the difference")
	}
}

// TestEqualBagKeepsKinds: the oracle is stricter than Key. Key unifies
// INT 3 with FLOAT 3.0 because = does; a result that changed kind
// between strategies is still a different result.
func TestEqualBagKeepsKinds(t *testing.T) {
	one := func(v value.Value) *Relation {
		r := New(NewSchema(Column{Name: "N", Type: v.Kind()}))
		r.Append(Tuple{v})
		return r
	}
	if one(value.Int(3)).EqualBag(one(value.Float(3))) {
		t.Error("EqualBag treats INT 3 and FLOAT 3.0 as the same result")
	}
	if d := one(value.Int(3)).Diff(one(value.Str("3"))); !strings.Contains(d, "[3] vs [3]") {
		t.Errorf("Diff = %q, want the differing rows printed", d)
	}
	if !one(value.Float(0)).EqualBag(one(value.Float(math.Copysign(0, -1)))) {
		t.Error("EqualBag splits 0.0 from -0.0, which compare equal")
	}
}

func TestRelationStringTruncates(t *testing.T) {
	r := New(NewSchema(Column{Name: "N", Type: value.KindInt}))
	for i := 0; i < 60; i++ {
		r.Append(Tuple{value.Int(int64(i))})
	}
	s := r.String()
	if !strings.Contains(s, "10 more rows") {
		t.Errorf("expected truncation notice, got:\n%s", s)
	}
}

func TestTupleApproxBytes(t *testing.T) {
	empty := Tuple{}
	if got := empty.ApproxBytes(); got != 24 {
		t.Fatalf("empty tuple: %d", got)
	}
	ints := Tuple{value.Int(1), value.Int(2)}
	if got := ints.ApproxBytes(); got != 24+2*32 {
		t.Fatalf("two ints: %d", got)
	}
	// String payload is charged on top of the fixed per-value size.
	s := Tuple{value.Str("abcdefgh")}
	if got, want := s.ApproxBytes(), int64(24+32+8); got != want {
		t.Fatalf("string tuple: got %d want %d", got, want)
	}
	if n := (Tuple{value.Null}).ApproxBytes(); n != 24+32 {
		t.Fatalf("null tuple: %d", n)
	}
}

// TestHashIndexBuckets checks the shared index on edge shapes: every
// bucket lists its entries in ascending position, every indexed
// position is found under its own hash exactly once, and a left-out
// position is found nowhere.
func TestHashIndexBuckets(t *testing.T) {
	const hi = 0xABCD_0000_0000_0000
	rng := rand.New(rand.NewSource(1))
	random := make([]uint64, 1000)
	for i := range random {
		random[i] = rng.Uint64() % 300 // duplicates
	}
	cases := []struct {
		name string
		n    int
		key  func(i int) (uint64, bool)
	}{
		{"empty", 0, nil},
		{"one", 1, func(int) (uint64, bool) { return 42, true }},
		{"all-left-out", 100, func(int) (uint64, bool) { return 7, false }},
		{"one-bucket", 100, func(int) (uint64, bool) { return 7, true }},
		{"low-bits", 100, func(i int) (uint64, bool) { return hi | uint64(i%2), true }},
		{"random-with-nulls", len(random), func(i int) (uint64, bool) { return random[i], i%7 != 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ix := NewHashIndex(c.n, c.key)
			for b := 0; b+1 < len(ix.off); b++ {
				ents := ix.ents[ix.off[b]:ix.off[b+1]]
				for k := 1; k < len(ents); k++ {
					if ents[k-1].Pos >= ents[k].Pos {
						t.Fatalf("bucket %d out of position order: %v", b, ents)
					}
				}
				for _, e := range ents {
					if ix.bucket(e.Hash) != b {
						t.Fatalf("entry %v in bucket %d, belongs in %d", e, b, ix.bucket(e.Hash))
					}
				}
			}
			indexed := 0
			for i := 0; i < c.n; i++ {
				h, ok := c.key(i)
				found := 0
				for _, e := range ix.Bucket(h) {
					if int(e.Pos) == i {
						found++
						if e.Hash != h {
							t.Fatalf("position %d stored under %#x, want %#x", i, e.Hash, h)
						}
					}
				}
				if want := map[bool]int{true: 1, false: 0}[ok]; found != want {
					t.Fatalf("position %d (ok=%v) found %d times, want %d", i, ok, found, want)
				}
				if ok {
					indexed++
				}
			}
			if len(ix.ents) != indexed {
				t.Fatalf("%d entries, want %d", len(ix.ents), indexed)
			}
			if c.name == "low-bits" && ix.bucket(hi) == ix.bucket(hi|1) {
				t.Fatalf("hashes differing in bit 0 share bucket %d", ix.bucket(hi))
			}
		})
	}
}

// TestColumnDictBound pins a coded column's bound: Append codes up to
// MaxDict distinct strings, in the order it meets them, a repeat taking
// its first code and each entry's hash the one-column key hash; the next
// distinct string moves the column to Strs in a new slice, and a copy
// taken before — a reader's — keeps its codes and reads what it read.
// A kind change boxes a coded column as it does a plain one.
func TestColumnDictBound(t *testing.T) {
	rows := make([]Tuple, MaxDict+3)
	for i := range rows {
		rows[i] = Tuple{value.Str(fmt.Sprintf("s%05d", MaxDict-i))} // descending: code order is not string order
	}
	rows[3], rows[5] = Tuple{value.Null}, rows[0]
	c := Coded(value.KindInt) // the cells decide the kind
	c.Append(rows[:MaxDict+2], 0)
	if c.Kind != value.KindString || len(c.Dict) != MaxDict || c.Strs != nil || c.Codes[5] != c.Codes[0] {
		t.Fatalf("kind %v, %d entries, Strs %v: want MaxDict codes", c.Kind, len(c.Dict), c.Strs != nil)
	}
	for code, d := range c.Dict {
		if c.DictHash[code] != value.FoldHash(value.HashInit, value.Str(d)) {
			t.Fatalf("entry %d %q: hash %x", code, d, c.DictHash[code])
		}
	}
	if c.Dict[0] != "s04096" || c.Dict[1] != "s04095" {
		t.Fatalf("dictionary starts %q, want insertion order", c.Dict[:2])
	}
	reader := *c
	c.Append(rows[MaxDict+2:], 0) // a string the dictionary lacks
	if c.Dict != nil || c.Codes != nil || len(c.Strs) != len(rows) {
		t.Fatalf("past the bound: Dict %v, Codes %v, %d Strs; want plain", c.Dict != nil, c.Codes != nil, len(c.Strs))
	}
	for i, row := range rows {
		if !value.Equal(c.Value(i), row[0]) || i < reader.Len() && !value.Equal(reader.Value(i), row[0]) {
			t.Fatalf("row %d: %v, reader's %v; want %v", i, c.Value(i), reader.Value(i), row[0])
		}
	}
	boxed := Coded(value.KindString)
	boxed.Append([]Tuple{{value.Str("a")}, {value.Int(1)}}, 0)
	if boxed.Boxed == nil || boxed.Dict != nil || !value.Equal(boxed.Value(0), value.Str("a")) {
		t.Fatalf("a coded column of STRING and INT cells: Boxed %v, Dict %v", boxed.Boxed != nil, boxed.Dict != nil)
	}
}

// TestHashIndexRetire: Retire moves a bucket's dead entries past its
// live end, whichever end of the bucket they sit at and in either order,
// keeps the live ones in position order, and leaves them all stored; a
// bucket two hashes share keeps the other hash's live entries. Build
// makes every bucket whole again.
func TestHashIndexRetire(t *testing.T) {
	const n = 8
	h1, h2 := uint64(0x1234_5678_9abc_def0), uint64(0)
	probe := NewHashIndex(n, func(int) (uint64, bool) { return 0, true })
	for h2 = h1 + 1; probe.bucket(h2) != probe.bucket(h1); h2++ {
	}
	key := func(i int) (uint64, bool) { return []uint64{h1, h2}[i%2], i < 6 } // 0, 2, 4 under h1; 1, 3, 5 under h2
	positions := func(ents []HashEntry) (pos []int32) {
		for _, e := range ents {
			pos = append(pos, e.Pos)
		}
		return pos
	}
	for _, order := range [][]int32{{0, 5}, {5, 0}, {4, 1}, {0, 1, 2, 3, 4, 5}} {
		ix, live := NewHashIndex(n, key), []bool{true, true, true, true, true, true, true, true}
		var want []int32
		for _, pos := range order {
			live[pos] = false
			h, _ := key(int(pos))
			ix.Retire(h, live)
		}
		for i := int32(0); i < 6; i++ {
			if live[i] {
				want = append(want, i)
			}
		}
		if got := positions(ix.Bucket(h1)); !slices.Equal(got, want) {
			t.Errorf("retiring %v: bucket %v, want %v", order, got, want)
		}
		b := ix.bucket(h1)
		if whole := positions(ix.ents[ix.off[b]:ix.off[b+1]]); len(whole) != 6 || !slices.Equal(whole[:len(want)], want) {
			t.Errorf("retiring %v: stored %v, want %v then the retired", order, whole, want)
		}
		if ix.Build(n, key); len(ix.Bucket(h2)) != 6 {
			t.Errorf("retiring %v: a rebuilt bucket holds %v", order, ix.Bucket(h2))
		}
	}
}
