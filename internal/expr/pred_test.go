package expr

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// predSeed offsets the property test's seeds, so the property can be
// checked at seeds nobody looked at while writing the kernels:
//
//	go test -run TestPredEquivalence ./internal/expr -pred.seed 977
var predSeed = flag.Int64("pred.seed", 0, "offset added to TestPredEquivalence's seeds")

// predSchema is the generator's row: one column per kind, then a column
// whose cells are of any kind (a derived detail need not honour its
// schema), then second INT, FLOAT and STRING columns for Col φ Col.
var predSchema = relation.NewSchema(
	relation.Column{Qualifier: "t", Name: "i", Type: value.KindInt},
	relation.Column{Qualifier: "t", Name: "f", Type: value.KindFloat},
	relation.Column{Qualifier: "t", Name: "s", Type: value.KindString},
	relation.Column{Qualifier: "t", Name: "b", Type: value.KindBool},
	relation.Column{Qualifier: "t", Name: "m", Type: value.KindInt},
	relation.Column{Qualifier: "t", Name: "i2", Type: value.KindInt},
	relation.Column{Qualifier: "t", Name: "f2", Type: value.KindFloat},
	relation.Column{Qualifier: "t", Name: "s2", Type: value.KindString},
)

// The edges the kernels must answer as value.Compare does: the integers
// a float64 cannot tell apart, signed zeros, NaN, the infinities, the
// empty string.
var (
	edgeInts   = []int64{0, 1, -1, 7, 1<<53 - 1, 1 << 53, 1<<53 + 1, -(1 << 53) - 1, math.MinInt64, math.MaxInt64}
	edgeFloats = []float64{0, math.Copysign(0, -1), 1, -1, 7, 7.5, 1 << 53, 1<<53 + 2, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxInt64}
	edgeStrs   = []string{"", "a", "ab", "b", "a%", "Z"}
)

func genValue(rng *rand.Rand, kind value.Kind) value.Value {
	switch kind {
	case value.KindInt:
		return value.Int(edgeInts[rng.Intn(len(edgeInts))])
	case value.KindFloat:
		return value.Float(edgeFloats[rng.Intn(len(edgeFloats))])
	case value.KindString:
		return value.Str(edgeStrs[rng.Intn(len(edgeStrs))])
	case value.KindBool:
		return value.Bool(rng.Intn(2) == 0)
	}
	return value.Null
}

// genRow draws a NULL-dense row of predSchema; the m column draws its
// kind per cell.
func genRow(rng *rand.Rand) relation.Tuple {
	row := make(relation.Tuple, predSchema.Len())
	for i, c := range predSchema.Columns {
		kind := c.Type
		if c.Name == "m" {
			kind = value.Kind(1 + rng.Intn(4))
		}
		if rng.Intn(5) > 0 {
			row[i] = genValue(rng, kind)
		}
	}
	return row
}

func genCol(rng *rand.Rand) Expr {
	c := predSchema.Columns[rng.Intn(predSchema.Len())]
	return NewCol(c.Qualifier, c.Name)
}

func genLit(rng *rand.Rand) Expr {
	return &Lit{V: genValue(rng, value.Kind(rng.Intn(5)))}
}

// genOperands draws a column and something to compare it with — a
// literal or a second column — three times in four of a kind that
// compares with it (INT beside FLOAT included), so that True, False and
// Unknown all occur; the fourth is anything, a NULL literal included.
func genOperands(rng *rand.Rand, lit bool) (Expr, Expr) {
	ci := rng.Intn(predSchema.Len())
	c := predSchema.Columns[ci]
	kind, any := c.Type, rng.Intn(4) == 0
	if numeric := kind == value.KindInt || kind == value.KindFloat; numeric && rng.Intn(2) == 0 {
		kind = value.KindInt + value.KindFloat - kind
	}
	switch {
	case lit && any:
		return NewCol(c.Qualifier, c.Name), genLit(rng)
	case lit:
		return NewCol(c.Qualifier, c.Name), &Lit{V: genValue(rng, kind)}
	case any:
		return NewCol(c.Qualifier, c.Name), genCol(rng)
	}
	for {
		if o := predSchema.Columns[rng.Intn(predSchema.Len())]; o.Type == kind {
			return NewCol(c.Qualifier, c.Name), NewCol(o.Qualifier, o.Name)
		}
	}
}

// genLeaf draws one conjunct: mostly the shapes Compile lowers, else one
// it must keep generic — arithmetic, LIKE (which fails on a non-string),
// OR, NOT, a nested AND under them, a placeholder (which always fails).
func genLeaf(rng *rand.Rand, depth int) Expr {
	op := value.CmpOp(rng.Intn(6))
	switch n := rng.Intn(14); {
	case n < 4:
		col, lit := genOperands(rng, true)
		return NewCmp(op, col, lit)
	case n < 6:
		col, lit := genOperands(rng, true)
		return NewCmp(op, lit, col)
	case n < 9:
		l, r := genOperands(rng, false)
		return NewCmp(op, l, r)
	case n < 10:
		return NewIsNull(genCol(rng), rng.Intn(2) == 0)
	case n < 11:
		return NewCmp(op, NewArith(ArithOp("+-*/"[rng.Intn(4)]), genCol(rng), genLit(rng)), genLit(rng))
	case n < 12:
		return NewLike(genCol(rng), []string{"a%", "_", "%"}[rng.Intn(3)], rng.Intn(2) == 0)
	case depth == 0 && n < 13:
		return []Expr{&Param{Ordinal: 1}, BoolLit(true), NullLit(), NewCmp(op, genLit(rng), genLit(rng))}[rng.Intn(4)]
	case depth == 0:
		return NewIsNull(genCol(rng), false)
	}
	kids := []Expr{genLeaf(rng, depth-1), genLeaf(rng, depth-1)}
	switch rng.Intn(3) {
	case 0:
		return NewOr(kids...)
	case 1:
		return NewNot(NewAnd(kids...))
	}
	return NewAnd(kids...) // a nested AND: Conjuncts flattens it
}

func genPred(t testing.TB, rng *rand.Rand) Expr {
	terms := make([]Expr, 1+rng.Intn(3))
	for i := range terms {
		terms[i] = genLeaf(rng, 2)
	}
	bound, err := NewAnd(terms...).Bind(predSchema)
	if err != nil {
		t.Fatal(err)
	}
	return bound
}

// truncate is what Filter and Pair promise, spelled with the
// interpreter: the conjuncts in order, stopping at the first that is not
// True — so a conjunct that would fail goes unevaluated behind an
// Unknown, where the interpreter's AND (which stops only at False)
// evaluates it and fails. That is the one permitted difference.
func truncate(bound Expr, row relation.Tuple) (bool, error) {
	for _, cj := range Conjuncts(bound) {
		if tr, err := EvalTri(cj, row); err != nil || tr != value.True {
			return false, err
		}
	}
	return true, nil
}

// checkPredEquivalence holds one generated predicate's three entry
// points to the interpreter over a generated morsel.
func checkPredEquivalence(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	bound := genPred(t, rng)
	p := Compile(bound)
	rows := make([]relation.Tuple, 1+rng.Intn(40))
	for i := range rows {
		rows[i] = genRow(rng)
	}
	want, failing := make([]bool, len(rows)), false
	buf, ws, fails := make(relation.Tuple, predSchema.Len()), make([]int, len(rows)), make([]bool, len(rows))
	for i, row := range rows {
		wantTri, wantErr := EvalTri(bound, row)
		if tr, err := p.Tri(row); (err != nil) != (wantErr != nil) || (err == nil && tr != wantTri) {
			t.Fatalf("seed %d: %s over %v: Tri = %v, %v; EvalTri = %v, %v", seed, bound, row, tr, err, wantTri, wantErr)
		}
		ok, err := truncate(bound, row)
		// Against the interpreter: a True row is never lost, nothing else
		// is selected, and truncation fails only where the interpreter does.
		if (wantErr == nil && (err != nil || ok != (wantTri == value.True))) || (wantErr != nil && ok) {
			t.Fatalf("seed %d: %s over %v: truncated = %v, %v; EvalTri = %v, %v", seed, bound, row, ok, err, wantTri, wantErr)
		}
		w := rng.Intn(len(row) + 1)
		if got, gotErr := p.Pair(rowSide(row[:w]), rowSide(row[w:]), buf); got != ok || (gotErr != nil) != (err != nil) {
			t.Fatalf("seed %d: %s over %v ++ %v: Pair = %v, %v; want %v, %v", seed, bound, row[:w], row[w:], got, gotErr, ok, err)
		}
		ws[i], fails[i] = w, err != nil
		want[i], failing = ok, failing || err != nil
	}
	got := make([]bool, len(rows))
	if err := p.Filter(rows, got); (err != nil) != failing || (err == nil && !slices.Equal(got, want)) {
		t.Fatalf("seed %d: %s: Filter = %v, %v; want %v, failing %v", seed, bound, got, err, want, failing)
	}
	// The same morsel as the tail of a stored relation's typed columns,
	// plain and dictionary-coded, from every position and from a few.
	lo := rng.Intn(3)
	stored := append(make([]relation.Tuple, 0, lo+len(rows)), rows[:min(lo, len(rows))]...)
	lo = len(stored)
	all := append(stored, rows...)
	for _, cols := range [][]*relation.ColVec{columnsOf(all, value.KindNull), codedOf(all, value.KindNull)} {
		if err := scanFilter(p, cols, rows, lo, got); (err != nil) != failing || (err == nil && !slices.Equal(got, want)) {
			t.Fatalf("seed %d: %s: Select = %v, %v; want %v, failing %v", seed, bound, got, err, want, failing)
		}
		var in, keep []int32
		for i := range rows {
			if rng.Intn(3) == 0 {
				if in = append(in, int32(i)); want[i] {
					keep = append(keep, int32(i))
				}
			}
		}
		var sc Scan
		sc.Bind(p, cols)
		if kept, err := sc.Select(rows, lo, in); !failing && (err != nil || !slices.Equal(kept, keep)) {
			t.Fatalf("seed %d: %s: Select over %v = %v, %v; want %v", seed, bound, in, kept, err, keep)
		}
		// Pair with each side's cells read from its vectors, some left
		// out: a kernel reads the tuple's cell there.
		some := slices.Clone(cols)
		for c := range some {
			if rng.Intn(4) == 0 {
				some[c] = nil
			}
		}
		for i, row := range rows {
			w, tails := ws[i], make([]relation.Tuple, lo+i+1)
			tails[lo+i] = row[ws[i]:]
			base, detail := &Side{Rows: all, Cols: some[:w], At: lo + i}, &Side{Rows: tails, Cols: some[w:], At: lo + i}
			if got, err := p.Pair(base, detail, buf); got != want[i] || (err != nil) != fails[i] {
				t.Fatalf("seed %d: %s over %v ++ %v from vectors: Pair = %v, %v; want %v", seed, bound, row[:w], row[w:], got, err, want[i])
			}
		}
	}
}

// rowSide is a Pair side of one row and no vectors.
func rowSide(row relation.Tuple) *Side {
	return &Side{Rows: []relation.Tuple{row}, Cols: make([]*relation.ColVec, len(row))}
}

// scanFilter is Filter over the morsel at row lo of cols, through a Scan.
func scanFilter(p *Pred, cols []*relation.ColVec, rows []relation.Tuple, lo int, sel []bool) error {
	var s Scan
	s.Bind(p, cols)
	pos := make([]int32, len(rows))
	for i := range pos {
		pos[i] = int32(i)
	}
	kept, err := s.Select(rows, lo, pos)
	clear(sel)
	for _, i := range kept {
		sel[i] = true
	}
	return err
}

// TestPredEquivalence: kernel ≡ interpreter, by property. For every
// generated predicate and row, Tri is EvalTri — value and failure alike —
// and Filter, Scan.Select (over plain and coded vectors, all positions
// or some) and Pair are the interpreter truncated to True (truncate).
func TestPredEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3000; seed++ {
		checkPredEquivalence(t, *predSeed+seed)
	}
}

func FuzzPredEquivalence(f *testing.F) {
	for _, seed := range []int64{1, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(checkPredEquivalence)
}

// TestPredGenericBehindUnknown spells the permitted difference out: a
// LIKE over an INT fails wherever it is evaluated. Behind a conjunct
// that answered Unknown, Filter and Pair never reach it and the
// interpreter (and Tri) do; behind one that answered True, all four fail.
func TestPredGenericBehindUnknown(t *testing.T) {
	bind := func(first Expr) (Expr, *Pred) {
		bound, err := NewAnd(first, NewLike(C("t.i"), "a%", false)).Bind(predSchema)
		if err != nil {
			t.Fatal(err)
		}
		return bound, Compile(bound)
	}
	row := make(relation.Tuple, predSchema.Len())
	row[0] = value.Int(7) // t.f stays NULL
	rows, sel, buf := []relation.Tuple{row}, []bool{true}, make(relation.Tuple, len(row))

	bound, p := bind(NewCmp(value.GT, C("t.f"), IntLit(0))) // Unknown
	if _, err := EvalTri(bound, row); err == nil {
		t.Fatal("interpreter: LIKE over INT behind an Unknown should fail")
	}
	if _, err := p.Tri(row); err == nil {
		t.Error("Tri: want the interpreter's failure")
	}
	if err := p.Filter(rows, sel); err != nil || sel[0] {
		t.Errorf("Filter = %v, %v; want the row rejected unevaluated", sel, err)
	}
	if ok, err := p.Pair(rowSide(row[:3]), rowSide(row[3:]), buf); err != nil || ok {
		t.Errorf("Pair = %v, %v; want the pair rejected unevaluated", ok, err)
	}

	_, p = bind(NewCmp(value.GT, C("t.i"), IntLit(0))) // True: the row survives to the LIKE
	if err := p.Filter(rows, sel); err == nil {
		t.Error("Filter: a failure on a surviving row must surface")
	}
	if _, err := p.Pair(rowSide(row[:3]), rowSide(row[3:]), buf); err == nil {
		t.Error("Pair: a failure on a surviving pair must surface")
	}
}

// TestPredColumnOutOfRange: a row narrower than the schema the
// predicate was bound to is the interpreter's error, not a panic.
func TestPredColumnOutOfRange(t *testing.T) {
	bound, err := NewCmp(value.EQ, C("t.s2"), C("t.i")).Bind(predSchema)
	if err != nil {
		t.Fatal(err)
	}
	p, short := Compile(bound), relation.Tuple{value.Int(1), value.Null}
	_, want := EvalTri(bound, short)
	if _, err := p.Tri(short); want == nil || err == nil || err.Error() != want.Error() {
		t.Errorf("Tri over a short row: %v, want %v", err, want)
	}
	if err := p.Filter([]relation.Tuple{short}, make([]bool, 1)); err == nil {
		t.Error("Filter over a short row: no error")
	}
	if _, err := p.Pair(rowSide(short[:1]), rowSide(short[1:]), nil); err == nil {
		t.Error("Pair over a short pair: no error")
	}
}

// kernelPred is an all-kernel predicate over predSchema: every leaf
// shape, the INT-beside-FLOAT and string compares included.
func kernelPred(t testing.TB) *Pred {
	bound, err := NewAnd(
		NewCmp(value.GE, C("t.i"), IntLit(0)), NewCmp(value.LT, IntLit(-5), C("t.f")),
		NewCmp(value.NE, C("t.s"), StrLit("zz")), NewCmp(value.LE, C("t.i"), C("t.f2")),
		NewIsNull(C("t.b"), true), BoolLit(true),
	).Bind(predSchema)
	if err != nil {
		t.Fatal(err)
	}
	return Compile(bound)
}

// raceEnabled is set by race_test.go.
var raceEnabled bool

// TestPredAllocs: a predicate of kernels allocates nothing through any
// entry point (Filter's, pooled, is not measured under the race
// detector, which drops pooled items).
func TestPredAllocs(t *testing.T) {
	p := kernelPred(t)
	row := relation.Tuple{value.Int(3), value.Float(2.5), value.Str("a"), value.Bool(true), value.Null, value.Int(1), value.Float(9), value.Str("b")}
	rows := make([]relation.Tuple, 512)
	for i := range rows {
		rows[i] = row
	}
	sel, buf := make([]bool, len(rows)), make(relation.Tuple, len(row))
	base, detail := &Side{Rows: rows, Cols: codedOf(rows, value.KindNull)[:4], At: 7}, rowSide(row[4:])
	if err := p.Filter(rows, sel); err != nil || slices.Contains(sel, false) {
		t.Fatalf("Filter rejected a row every kernel accepts, %v", err)
	}
	for name, fn := range map[string]func(){
		"Filter": func() { p.Filter(rows, sel) },
		"Pair":   func() { p.Pair(base, detail, buf) },
		"Tri":    func() { p.Tri(row) },
	} {
		if n := testing.AllocsPerRun(20, fn); n != 0 && !(raceEnabled && name == "Filter") {
			t.Errorf("%s: %v allocations per run, want 0", name, n)
		}
	}
}

// BenchmarkPredFilter prints, per (cell kind × literal kind), ns/row of
// one comparison through Pred.Filter over rows and a Scan over the
// column's plain typed vector, beside the same conjunct through EvalTri —
// the table in CHANGES.md; then a Scan's "= 'O'" over a dictionary-coded
// vector, and a two-leaf chain whose first leaf keeps 1% of the rows.
func BenchmarkPredFilter(b *testing.B) {
	const n = 4096
	cells := map[string]func(i int) value.Value{
		"int":    func(i int) value.Value { return value.Int(int64(i % 100)) },
		"float":  func(i int) value.Value { return value.Float(float64(i%100) + 0.5) },
		"string": func(i int) value.Value { return value.Str([]string{"F", "O", "P"}[i%3]) },
		"null":   func(int) value.Value { return value.Null },
	}
	lits := map[string]Expr{"int": IntLit(50), "float": FloatLit(49.5), "string": StrLit("O")}
	perRow := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
	}
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	// scan runs e over the columns from every position, b.N times.
	scan := func(e Expr, schema *relation.Schema, rows []relation.Tuple, cols []*relation.ColVec) func(b *testing.B) {
		return func(b *testing.B) {
			bound, err := e.Bind(schema)
			if err != nil {
				b.Fatal(err)
			}
			var s Scan
			s.Bind(Compile(bound), cols)
			sel := make([]int32, n)
			for i := 0; i < b.N; i++ {
				if _, err := s.Select(rows, 0, sel[:copy(sel, all)]); err != nil {
					b.Fatal(err)
				}
			}
			perRow(b)
		}
	}
	schema := relation.NewSchema(relation.Column{Name: "c"}, relation.Column{Name: "d"})
	for _, pair := range [][2]string{{"int", "int"}, {"int", "float"}, {"float", "int"}, {"float", "float"}, {"string", "string"}, {"null", "int"}, {"string", "int"}} {
		rows := make([]relation.Tuple, n)
		for i := range rows {
			rows[i] = relation.Tuple{cells[pair[0]](i)}
		}
		e := NewCmp(value.GT, C("c"), lits[pair[1]])
		bound, err := e.Bind(schema)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s-%s/Filter", pair[0], pair[1]), func(b *testing.B) {
			p, sel := Compile(bound), make([]bool, n)
			for i := 0; i < b.N; i++ {
				if err := p.Filter(rows, sel); err != nil {
					b.Fatal(err)
				}
			}
			perRow(b)
		})
		b.Run(fmt.Sprintf("%s-%s/Columns", pair[0], pair[1]), scan(e, schema, rows, columnsOf(rows, value.KindNull)))
		b.Run(fmt.Sprintf("%s-%s/EvalTri", pair[0], pair[1]), func(b *testing.B) {
			sel := make([]bool, n)
			for i := 0; i < b.N; i++ {
				for ri, row := range rows {
					tr, err := EvalTri(bound, row)
					if err != nil {
						b.Fatal(err)
					}
					sel[ri] = tr == value.True
				}
			}
			perRow(b)
		})
	}
	rows := make([]relation.Tuple, n)
	for i := range rows {
		rows[i] = relation.Tuple{cells["string"](i), cells["float"](i * 7)}
	}
	b.Run("string-dict-eq/Columns", scan(Eq(C("c"), StrLit("O")), schema, rows, codedOf(rows, value.KindNull)))
	b.Run("chain-1%/Columns", scan(NewAnd(NewCmp(value.GT, C("d"), IntLit(98)), NewCmp(value.EQ, C("c"), StrLit("O"))), schema, rows, codedOf(rows, value.KindNull)))
}

// TestFilterColumns: a Scan over typed columns — the vectors of a
// stored table, plain and dictionary-coded, from a row that is not the
// morsel's first — and Filter over rows, which gathers plain vectors,
// both answer as the kernels do cell by cell (Tri), for every cell kind ×
// literal kind × operator, column beside column and IS [NOT] NULL: NULLs,
// NaN payloads, ±0, INTs beyond 2^53 beside FLOATs, BOOL, a column with
// no non-NULL cell, a boxed (mixed-kind) one, and a coded one whose
// dictionary is not in string order, against literals it lacks.
func TestFilterColumns(t *testing.T) {
	nan2 := math.Float64frombits(0x7ff8000000000001)
	var lits []value.Value
	kinds := map[string][]value.Value{"null": {value.Null}}
	for _, x := range edgeInts {
		kinds["int"] = append(kinds["int"], value.Int(x))
	}
	for _, x := range append(edgeFloats, nan2, 1<<53+1) {
		kinds["float"] = append(kinds["float"], value.Float(x))
	}
	for _, x := range edgeStrs {
		kinds["string"] = append(kinds["string"], value.Str(x))
	}
	kinds["bool"] = []value.Value{value.Bool(false), value.Bool(true)}
	for _, x := range []string{"b", "", "a", "ab", "Z", "a%"} {
		kinds["coded"] = append(kinds["coded"], value.Str(x))
	}
	names := []string{"int", "float", "string", "bool", "null", "mixed", "coded"}
	for _, k := range names[:5] {
		lits = append(lits, kinds[k]...)
		kinds["mixed"] = append(kinds["mixed"], kinds[k]...)
	}
	lits = append(lits, value.Str("aa"), value.Str("c"))
	cols := make([]relation.Column, len(names))
	for i, k := range names {
		cols[i] = relation.Column{Qualifier: "t", Name: k}
	}
	schema := relation.NewSchema(cols...)
	rows := make([]relation.Tuple, 97)
	for r := range rows {
		rows[r] = make(relation.Tuple, len(names))
		for i, k := range names {
			if cells := kinds[k]; r%7 != 3 { // a NULL now and then in every column
				rows[r][i] = cells[(r*(i+1))%len(cells)]
			}
		}
	}
	// The schema's word for a column is INT, then none: the cells decide,
	// but for the column with no non-NULL cell.
	typed, untyped, coded := columnsOf(rows, value.KindInt), columnsOf(rows, value.KindNull), codedOf(rows, value.KindString)
	if typed[5].Boxed == nil || typed[4].Kind != value.KindInt || untyped[4].Kind != value.KindNull || typed[1].Kind != value.KindFloat {
		t.Fatalf("vectors packed as %v, %v, %v, %v; want the mixed column boxed", typed[5].Kind, typed[4].Kind, untyped[4].Kind, typed[1].Kind)
	}
	if d := coded[6].Dict; len(d) != 6 || slices.IsSorted(d) || coded[2].Dict == nil || coded[5].Dict != nil || typed[6].Dict != nil || len(coded[4].Dict) != 0 || coded[4].Kind != value.KindString {
		t.Fatalf("coded dictionary %q; want the STRING columns coded, in an order not sorted, the NULL one coded empty", d)
	}
	var preds []Expr
	for _, c := range names {
		preds = append(preds, NewIsNull(C("t."+c), false), NewIsNull(C("t."+c), true))
		for op := value.EQ; op <= value.GE; op++ {
			for _, lit := range lits {
				preds = append(preds, NewCmp(op, C("t."+c), &Lit{V: lit}), NewCmp(op, &Lit{V: lit}, C("t."+c)))
			}
			for _, d := range names {
				preds = append(preds, NewCmp(op, C("t."+c), C("t."+d)))
			}
		}
	}
	const lo = 5 // the morsel starts inside the vectors
	want, got := make([]bool, len(rows)-lo), make([]bool, len(rows)-lo)
	for _, e := range preds {
		bound, err := e.Bind(schema)
		if err != nil {
			t.Fatal(err)
		}
		p := Compile(bound)
		for i, row := range rows[lo:] {
			tr, err := p.Tri(row)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = tr == value.True
		}
		if err := p.Filter(rows[lo:], got); err != nil || !slices.Equal(got, want) {
			t.Fatalf("%s: Filter over rows = %v, %v; want %v", e, got, err, want)
		}
		for _, vecs := range [][]*relation.ColVec{typed, untyped, coded} {
			if err := scanFilter(p, vecs, rows[lo:], lo, got); err != nil || !slices.Equal(got, want) {
				t.Fatalf("%s: Select = %v, %v; want %v", e, got, err, want)
			}
		}
	}
}

// columnsOf packs every column of rows, starting each from kind.
func columnsOf(rows []relation.Tuple, kind value.Kind) []*relation.ColVec {
	vecs := make([]*relation.ColVec, len(rows[0]))
	for i := range vecs {
		vecs[i] = &relation.ColVec{Kind: kind}
		vecs[i].Append(rows, i)
	}
	return vecs
}

// codedOf is columnsOf as storage.Table.Column packs: STRING cells
// dictionary-coded.
func codedOf(rows []relation.Tuple, kind value.Kind) []*relation.ColVec {
	vecs := make([]*relation.ColVec, len(rows[0]))
	for i := range vecs {
		vecs[i] = relation.Coded(kind)
		vecs[i].Append(rows, i)
	}
	return vecs
}
