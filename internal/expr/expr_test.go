package expr

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

func schemaFA() *relation.Schema {
	return relation.NewSchema(
		relation.Column{Qualifier: "F", Name: "A", Type: value.KindInt},
		relation.Column{Qualifier: "F", Name: "B", Type: value.KindString},
		relation.Column{Qualifier: "G", Name: "A", Type: value.KindInt},
	)
}

func mustBind(t *testing.T, e Expr, s *relation.Schema) Expr {
	t.Helper()
	b, err := e.Bind(s)
	if err != nil {
		t.Fatalf("Bind(%s): %v", e, err)
	}
	return b
}

func mustEval(t *testing.T, e Expr, row relation.Tuple) value.Value {
	t.Helper()
	v, err := e.Eval(row)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return v
}

func TestColBindEval(t *testing.T) {
	s := schemaFA()
	row := relation.Tuple{value.Int(7), value.Str("x"), value.Int(9)}
	b := mustBind(t, C("F.A"), s)
	if got := mustEval(t, b, row); got.AsInt() != 7 {
		t.Errorf("F.A = %v", got)
	}
	b = mustBind(t, C("G.A"), s)
	if got := mustEval(t, b, row); got.AsInt() != 9 {
		t.Errorf("G.A = %v", got)
	}
	b = mustBind(t, C("B"), s)
	if got := mustEval(t, b, row); got.AsString() != "x" {
		t.Errorf("B = %v", got)
	}
}

func TestColUnboundErrors(t *testing.T) {
	if _, err := C("F.A").Eval(relation.Tuple{value.Int(1)}); err == nil {
		t.Error("Eval on unbound Col should error")
	}
	if _, err := C("A").Bind(schemaFA()); err == nil {
		t.Error("bare A is ambiguous, Bind should fail")
	}
	if _, err := C("Z.Q").Bind(schemaFA()); err == nil {
		t.Error("unknown column should fail to bind")
	}
}

func TestColOutOfRangeRow(t *testing.T) {
	b := mustBind(t, C("G.A"), schemaFA())
	if _, err := b.Eval(relation.Tuple{value.Int(1)}); err == nil {
		t.Error("short row should error, not panic")
	}
}

func TestLiterals(t *testing.T) {
	row := relation.Tuple{}
	if mustEval(t, IntLit(3), row).AsInt() != 3 {
		t.Error("IntLit")
	}
	if mustEval(t, FloatLit(1.5), row).AsFloat() != 1.5 {
		t.Error("FloatLit")
	}
	if mustEval(t, StrLit("q"), row).AsString() != "q" {
		t.Error("StrLit")
	}
	if !mustEval(t, BoolLit(true), row).AsBool() {
		t.Error("BoolLit")
	}
	if !mustEval(t, NullLit(), row).IsNull() {
		t.Error("NullLit")
	}
	if StrLit("q").String() != "'q'" {
		t.Errorf("StrLit.String() = %q", StrLit("q").String())
	}
}

func TestArithEval(t *testing.T) {
	s := schemaFA()
	row := relation.Tuple{value.Int(6), value.Str("x"), value.Int(4)}
	e := mustBind(t, NewArith(OpAdd, C("F.A"), C("G.A")), s)
	if mustEval(t, e, row).AsInt() != 10 {
		t.Error("add")
	}
	e = mustBind(t, NewArith(OpDiv, C("F.A"), C("G.A")), s)
	if mustEval(t, e, row).AsFloat() != 1.5 {
		t.Error("div")
	}
	e = mustBind(t, NewArith(OpMul, C("F.A"), NullLit()), s)
	if !mustEval(t, e, row).IsNull() {
		t.Error("null propagation through arith")
	}
}

func TestCmpThreeValued(t *testing.T) {
	s := schemaFA()
	rowNull := relation.Tuple{value.Null, value.Str("x"), value.Int(4)}
	e := mustBind(t, NewCmp(value.GT, C("F.A"), IntLit(0)), s)
	if !mustEval(t, e, rowNull).IsNull() {
		t.Error("NULL > 0 must be Unknown (NULL)")
	}
	tr, err := EvalTri(e, rowNull)
	if err != nil || tr != value.Unknown {
		t.Errorf("EvalTri = %v, %v", tr, err)
	}
	row := relation.Tuple{value.Int(5), value.Str("x"), value.Int(4)}
	if !mustEval(t, e, row).AsBool() {
		t.Error("5 > 0")
	}
}

func TestEvalTriRejectsNonBoolean(t *testing.T) {
	if _, err := EvalTri(IntLit(3), relation.Tuple{}); err == nil {
		t.Error("EvalTri on INT should error")
	}
}

func TestAndOrShortCircuitAndKleene(t *testing.T) {
	s := schemaFA()
	rowNull := relation.Tuple{value.Null, value.Str("x"), value.Int(4)}
	unknown := NewCmp(value.EQ, C("F.A"), IntLit(1))
	// false AND unknown = false (short-circuit means the unknown term
	// must not force Unknown).
	e := mustBind(t, NewAnd(BoolLit(false), unknown), s)
	if v := mustEval(t, e, rowNull); v.IsNull() || v.AsBool() {
		t.Errorf("false AND unknown = %v, want false", v)
	}
	// true AND unknown = unknown.
	e = mustBind(t, NewAnd(BoolLit(true), unknown), s)
	if !mustEval(t, e, rowNull).IsNull() {
		t.Error("true AND unknown should be unknown")
	}
	// true OR unknown = true.
	e = mustBind(t, NewOr(BoolLit(true), unknown), s)
	if v := mustEval(t, e, rowNull); v.IsNull() || !v.AsBool() {
		t.Errorf("true OR unknown = %v, want true", v)
	}
	// false OR unknown = unknown.
	e = mustBind(t, NewOr(BoolLit(false), unknown), s)
	if !mustEval(t, e, rowNull).IsNull() {
		t.Error("false OR unknown should be unknown")
	}
}

func TestNewAndOrSingleTermTransparent(t *testing.T) {
	inner := BoolLit(true)
	if NewAnd(inner) != Expr(inner) {
		t.Error("NewAnd with one term should return it")
	}
	if NewOr(inner) != Expr(inner) {
		t.Error("NewOr with one term should return it")
	}
}

func TestNotAndIsNull(t *testing.T) {
	s := schemaFA()
	rowNull := relation.Tuple{value.Null, value.Str("x"), value.Int(4)}
	e := mustBind(t, NewNot(NewCmp(value.EQ, C("F.A"), IntLit(1))), s)
	if !mustEval(t, e, rowNull).IsNull() {
		t.Error("NOT unknown = unknown")
	}
	e = mustBind(t, NewIsNull(C("F.A"), false), s)
	if !mustEval(t, e, rowNull).AsBool() {
		t.Error("NULL IS NULL = true")
	}
	e = mustBind(t, NewIsNull(C("F.A"), true), s)
	if mustEval(t, e, rowNull).AsBool() {
		t.Error("NULL IS NOT NULL = false")
	}
}

func TestStringRendering(t *testing.T) {
	e := NewAnd(
		NewCmp(value.GE, C("F.A"), IntLit(1)),
		NewOr(NewCmp(value.EQ, C("F.B"), StrLit("x")), NewNot(BoolLit(false))),
	)
	s := e.String()
	for _, want := range []string{"F.A >= 1", "F.B = 'x'", "NOT", "AND", "OR"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestConjuncts(t *testing.T) {
	a := NewCmp(value.EQ, C("F.A"), IntLit(1))
	b := NewCmp(value.EQ, C("F.B"), StrLit("x"))
	c := NewCmp(value.GT, C("G.A"), IntLit(0))
	e := NewAnd(a, NewAnd(b, c))
	cj := Conjuncts(e)
	if len(cj) != 3 {
		t.Fatalf("Conjuncts len = %d, want 3", len(cj))
	}
	// Non-AND is a single conjunct.
	if len(Conjuncts(c)) != 1 {
		t.Error("single conjunct")
	}
	// Conj round-trips.
	if got := Conj(cj); len(Conjuncts(got)) != 3 {
		t.Error("Conj lost terms")
	}
	if Conj(nil).String() != "true" {
		t.Errorf("Conj(nil) = %s", Conj(nil))
	}
}

// TestColsAndQualifiers: Cols lists every column reference in visit
// order, each with the qualifier it was written with.
func TestColsAndQualifiers(t *testing.T) {
	e := NewAnd(
		NewCmp(value.EQ, C("F.A"), C("G.A")),
		NewCmp(value.GT, NewArith(OpAdd, C("F.A"), IntLit(1)), IntLit(0)),
	)
	var got, quals []string
	for _, c := range Cols(e) {
		got = append(got, c.String())
		quals = append(quals, c.Qualifier)
	}
	if strings.Join(got, " ") != "F.A G.A F.A" {
		t.Errorf("Cols = %v, want F.A G.A F.A in visit order", got)
	}
	if strings.Join(quals, " ") != "F G F" {
		t.Errorf("qualifiers = %v, want F G F", quals)
	}
}

func TestRenameQualifier(t *testing.T) {
	e := NewAnd(
		NewCmp(value.EQ, C("F.A"), C("G.A")),
		NewCmp(value.GT, C("F.A"), IntLit(0)),
	)
	quals := func(e Expr) string {
		var q []string
		for _, c := range Cols(e) {
			q = append(q, c.Qualifier)
		}
		return strings.Join(q, " ")
	}
	if got := quals(RenameQualifier(e, "F", "H")); got != "H G H" {
		t.Errorf("qualifiers after rename = %s, want H G H", got)
	}
	// Original untouched.
	if got := quals(e); got != "F G F" {
		t.Errorf("RenameQualifier mutated original: %s", got)
	}
}

func TestCloneDropsBinding(t *testing.T) {
	s := schemaFA()
	e := mustBind(t, NewCmp(value.EQ, C("F.A"), IntLit(1)), s)
	cl := Clone(e)
	cmp := cl.(*Cmp)
	if cmp.L.(*Col).Index() != -1 {
		t.Error("Clone should drop bound index")
	}
	// Clone is deep: rebinding the clone does not affect the original.
	if _, err := cl.Bind(s); err != nil {
		t.Errorf("rebinding clone: %v", err)
	}
}

// Property: And/Or over randomly-built boolean rows agree with a naive
// fold of the Kleene tables.
func TestAndOrProperty(t *testing.T) {
	toTri := func(x uint8) value.Tri { return value.Tri(x % 3) }
	lit := func(tr value.Tri) Expr {
		switch tr {
		case value.True:
			return BoolLit(true)
		case value.False:
			return BoolLit(false)
		default:
			return NullLit()
		}
	}
	f := func(xs []uint8) bool {
		if len(xs) == 0 {
			return true
		}
		terms := make([]Expr, len(xs))
		accAnd, accOr := value.True, value.False
		for i, x := range xs {
			tr := toTri(x)
			terms[i] = lit(tr)
			accAnd = accAnd.And(tr)
			accOr = accOr.Or(tr)
		}
		gotAnd, err1 := EvalTri(NewAnd(terms...), relation.Tuple{})
		gotOr, err2 := EvalTri(NewOr(terms...), relation.Tuple{})
		return err1 == nil && err2 == nil && gotAnd == accAnd && gotOr == accOr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWalkPruning(t *testing.T) {
	e := NewAnd(
		NewCmp(value.EQ, C("F.A"), IntLit(1)),
		NewCmp(value.EQ, C("F.B"), IntLit(2)),
	)
	var visited int
	Walk(e, func(x Expr) bool {
		visited++
		_, isCmp := x.(*Cmp)
		return !isCmp // do not descend into comparisons
	})
	// AND node + 2 Cmp nodes, no literals or columns.
	if visited != 3 {
		t.Errorf("visited = %d, want 3", visited)
	}
}
