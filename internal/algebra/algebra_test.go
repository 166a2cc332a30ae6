package algebra

import (
	"slices"
	"strings"
	"testing"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// mapResolver is a test SchemaResolver.
type mapResolver map[string]*relation.Schema

func (m mapResolver) TableSchema(name string) (*relation.Schema, error) {
	s, ok := m[name]
	if !ok {
		return nil, errUnknown(name)
	}
	return s, nil
}

type errUnknown string

func (e errUnknown) Error() string { return "unknown table " + string(e) }

func testResolver() mapResolver {
	return mapResolver{
		"Flow": relation.NewSchema(
			relation.Column{Qualifier: "Flow", Name: "SourceIP", Type: value.KindString},
			relation.Column{Qualifier: "Flow", Name: "DestIP", Type: value.KindString},
			relation.Column{Qualifier: "Flow", Name: "StartTime", Type: value.KindInt},
			relation.Column{Qualifier: "Flow", Name: "NumBytes", Type: value.KindInt},
		),
		"Hours": relation.NewSchema(
			relation.Column{Qualifier: "Hours", Name: "HourDsc", Type: value.KindInt},
			relation.Column{Qualifier: "Hours", Name: "StartInterval", Type: value.KindInt},
			relation.Column{Qualifier: "Hours", Name: "EndInterval", Type: value.KindInt},
		),
	}
}

func TestScanSchemaRename(t *testing.T) {
	res := testResolver()
	s, err := NewScan("Flow", "F").Schema(res)
	if err != nil {
		t.Fatal(err)
	}
	if s.Columns[0].Qualifier != "F" {
		t.Errorf("alias not applied: %v", s.Columns[0])
	}
	s, err = NewScan("Flow", "").Schema(res)
	if err != nil {
		t.Fatal(err)
	}
	if s.Columns[0].Qualifier != "Flow" {
		t.Errorf("default alias wrong: %v", s.Columns[0])
	}
	if _, err := NewScan("Nope", "").Schema(res); err == nil {
		t.Error("unknown table must error")
	}
}

func TestRestrictSchemaAndChildren(t *testing.T) {
	res := testResolver()
	r := Filter(NewScan("Flow", "F"), expr.Eq(expr.C("F.SourceIP"), expr.StrLit("1.2.3.4")))
	s, err := r.Schema(res)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 {
		t.Errorf("restrict schema len = %d", s.Len())
	}
	if len(r.Children()) != 1 {
		t.Errorf("children = %d", len(r.Children()))
	}
}

func TestRestrictChildrenIncludeSubquerySources(t *testing.T) {
	sub := &Subquery{Source: NewScan("Hours", "H")}
	r := NewRestrict(NewScan("Flow", "F"), And(
		&Atom{E: expr.BoolLit(true)},
		ExistsPred(sub),
	))
	if len(r.Children()) != 2 {
		t.Errorf("children = %d, want input + subquery source", len(r.Children()))
	}
}

func TestProjectSchema(t *testing.T) {
	res := testResolver()
	p := NewProject(NewScan("Flow", "F"), false,
		ProjItem{E: expr.C("F.SourceIP")},
		ProjItem{E: expr.C("F.NumBytes"), As: "bytes"},
		ProjItem{E: expr.NewArith(expr.OpDiv, expr.C("F.NumBytes"), expr.IntLit(2)), As: "half"},
	)
	s, err := p.Schema(res)
	if err != nil {
		t.Fatal(err)
	}
	if s.Columns[0].QualifiedName() != "F.SourceIP" {
		t.Errorf("col0 = %v", s.Columns[0])
	}
	if s.Columns[1].Name != "bytes" || s.Columns[1].Qualifier != "" {
		t.Errorf("col1 = %v", s.Columns[1])
	}
	if s.Columns[2].Name != "half" {
		t.Errorf("col2 = %v", s.Columns[2])
	}
}

func TestProjectComputedNeedsAlias(t *testing.T) {
	res := testResolver()
	p := NewProject(NewScan("Flow", "F"), false,
		ProjItem{E: expr.NewArith(expr.OpAdd, expr.C("F.NumBytes"), expr.IntLit(1))},
	)
	if _, err := p.Schema(res); err == nil {
		t.Error("computed item without alias must error")
	}
}

func TestJoinSchemas(t *testing.T) {
	res := testResolver()
	on := expr.Eq(expr.C("F.StartTime"), expr.C("H.StartInterval"))
	inner := NewJoin(InnerJoin, NewScan("Flow", "F"), NewScan("Hours", "H"), on)
	s, err := inner.Schema(res)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 7 {
		t.Errorf("inner join width = %d, want 7", s.Len())
	}
	semi := NewJoin(SemiJoin, NewScan("Flow", "F"), NewScan("Hours", "H"), on)
	s, err = semi.Schema(res)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 {
		t.Errorf("semi join width = %d, want 4", s.Len())
	}
	anti := NewJoin(AntiJoin, NewScan("Flow", "F"), NewScan("Hours", "H"), on)
	if s, _ := anti.Schema(res); s.Len() != 4 {
		t.Error("anti join keeps left schema")
	}
}

func TestGroupBySchema(t *testing.T) {
	res := testResolver()
	g := NewGroupBy(NewScan("Flow", "F"),
		[]*expr.Col{expr.C("F.SourceIP")},
		[]agg.Spec{{Func: agg.Sum, Arg: expr.C("F.NumBytes"), As: "total"}},
	)
	s, err := g.Schema(res)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.Columns[0].Name != "SourceIP" || s.Columns[1].Name != "total" {
		t.Errorf("groupby schema = %v", s)
	}
}

func TestGMDJSchema(t *testing.T) {
	res := testResolver()
	g := NewGMDJ(NewScan("Hours", "H"), NewScan("Flow", "F"),
		GMDJCond{
			Theta: expr.BoolLit(true),
			Aggs:  []agg.Spec{{Func: agg.Sum, Arg: expr.C("F.NumBytes"), As: "sum1"}},
		},
		GMDJCond{
			Theta: expr.BoolLit(true),
			Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt1"}},
		},
	)
	s, err := g.Schema(res)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 5 {
		t.Fatalf("gmdj schema = %v", s)
	}
	if s.Columns[3].Name != "sum1" || s.Columns[4].Name != "cnt1" {
		t.Errorf("agg columns = %v, %v", s.Columns[3], s.Columns[4])
	}
}

func TestGMDJSchemaDuplicateAggName(t *testing.T) {
	res := testResolver()
	g := NewGMDJ(NewScan("Hours", "H"), NewScan("Flow", "F"),
		GMDJCond{Theta: expr.BoolLit(true), Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}}},
		GMDJCond{Theta: expr.BoolLit(true), Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}}},
	)
	if _, err := g.Schema(res); err == nil {
		t.Error("duplicate aggregate output name must error")
	}
}

func TestRawAndDistinctSchema(t *testing.T) {
	rel := relation.New(relation.NewSchema(relation.Column{Name: "x", Type: value.KindInt}))
	raw := NewRaw("lit", rel)
	s, err := raw.Schema(nil)
	if err != nil || s.Len() != 1 {
		t.Fatalf("raw schema: %v %v", s, err)
	}
	d := NewDistinct(raw)
	if s, _ := d.Schema(nil); s.Len() != 1 {
		t.Error("distinct schema")
	}
	if len(d.Children()) != 1 {
		t.Error("distinct children")
	}
}

func TestStringRenderings(t *testing.T) {
	scan := NewScan("Flow", "F")
	if scan.String() != "Flow->F" {
		t.Errorf("scan = %q", scan)
	}
	sub := &Subquery{Source: NewScan("Hours", "H"), Where: &Atom{E: expr.BoolLit(true)}}
	preds := []Pred{
		ExistsPred(sub),
		NotExistsPred(sub),
		In(expr.C("F.SourceIP"), sub),
		NotIn(expr.C("F.SourceIP"), sub),
		&SubPred{Kind: ScalarCmp, Op: value.GT, Left: expr.C("F.NumBytes"), Sub: sub},
		&SubPred{Kind: CmpAll, Op: value.NE, Left: expr.C("F.NumBytes"), Sub: sub},
	}
	for _, p := range preds {
		if p.String() == "" {
			t.Errorf("empty String for %T", p)
		}
	}
	r := NewRestrict(scan, And(preds[0], Not(preds[1])))
	if !strings.Contains(r.String(), "∃") {
		t.Errorf("restrict rendering: %s", r)
	}
}

func TestInNotInDesugar(t *testing.T) {
	sub := &Subquery{Source: NewScan("Hours", "H")}
	in := In(expr.C("F.X"), sub)
	if in.Kind != CmpSome || in.Op != value.EQ {
		t.Errorf("IN must be =_some, got %v %v", in.Kind, in.Op)
	}
	nin := NotIn(expr.C("F.X"), sub)
	if nin.Kind != CmpAll || nin.Op != value.NE {
		t.Errorf("NOT IN must be ≠_all, got %v %v", nin.Kind, nin.Op)
	}
}

func TestHasSubquery(t *testing.T) {
	plain := And(&Atom{E: expr.BoolLit(true)}, &Atom{E: expr.BoolLit(false)})
	if HasSubquery(plain) {
		t.Error("plain predicate flagged")
	}
	sub := &Subquery{Source: NewScan("Hours", "H")}
	mixed := Or(plain, Not(ExistsPred(sub)))
	if !HasSubquery(mixed) {
		t.Error("subquery not found")
	}
}

func TestPushDownNegationsDeMorgan(t *testing.T) {
	a := &Atom{E: expr.C("F.A")}
	b := &Atom{E: expr.C("F.B")}
	// ¬(a ∧ b) ⇒ ¬a ∨ ¬b
	got := PushDownNegations(Not(And(a, b)))
	or, ok := got.(*PredOr)
	if !ok {
		t.Fatalf("got %T, want PredOr", got)
	}
	for _, term := range or.Terms {
		at, ok := term.(*Atom)
		if !ok {
			t.Fatalf("term %T", term)
		}
		if _, ok := at.E.(*expr.Not); !ok {
			t.Errorf("atom not negated: %s", at)
		}
	}
	// Double negation cancels.
	got = PushDownNegations(Not(Not(a)))
	if at, ok := got.(*Atom); !ok || at.E != a.E {
		t.Errorf("double negation: %v", got)
	}
}

func TestPushDownNegationsSubqueryRules(t *testing.T) {
	sub := &Subquery{Source: NewScan("Hours", "H")}
	cases := []struct {
		in       *SubPred
		wantKind SubKind
		wantOp   value.CmpOp
	}{
		{ExistsPred(sub), NotExists, 0},
		{NotExistsPred(sub), Exists, 0},
		{&SubPred{Kind: ScalarCmp, Op: value.GT, Left: expr.C("F.x"), Sub: sub}, ScalarCmp, value.LE},
		{&SubPred{Kind: CmpSome, Op: value.EQ, Left: expr.C("F.x"), Sub: sub}, CmpAll, value.NE},
		{&SubPred{Kind: CmpAll, Op: value.NE, Left: expr.C("F.x"), Sub: sub}, CmpSome, value.EQ},
	}
	for _, c := range cases {
		got := PushDownNegations(Not(c.in))
		sp, ok := got.(*SubPred)
		if !ok {
			t.Fatalf("¬%v gave %T", c.in, got)
		}
		if sp.Kind != c.wantKind {
			t.Errorf("¬%v kind = %v, want %v", c.in, sp.Kind, c.wantKind)
		}
		if c.in.Left != nil && sp.Op != c.wantOp {
			t.Errorf("¬%v op = %v, want %v", c.in, sp.Op, c.wantOp)
		}
	}
}

func TestPushDownNegationsRecursesIntoSubWhere(t *testing.T) {
	inner := &Subquery{Source: NewScan("Flow", "F2")}
	outer := &Subquery{
		Source: NewScan("Hours", "H"),
		Where:  Not(ExistsPred(inner)), // should become NOT EXISTS
	}
	got := PushDownNegations(ExistsPred(outer))
	sp := got.(*SubPred)
	innerPred, ok := sp.Sub.Where.(*SubPred)
	if !ok || innerPred.Kind != NotExists {
		t.Errorf("inner where = %v, want NOT EXISTS", sp.Sub.Where)
	}
}

func TestBoolTreeBuilders(t *testing.T) {
	tr := AndTree(Leaf(0), OrTree(Leaf(1), NotTree(Leaf(2))))
	if tr.Op != BoolAnd || len(tr.Kids) != 2 {
		t.Error("AndTree shape")
	}
	if tr.Kids[0].Leaf != 0 || tr.Kids[0].Op != BoolLeaf {
		t.Error("Leaf shape")
	}
	if tr.Kids[1].Kids[1].Op != BoolNot {
		t.Error("NotTree shape")
	}
}

func TestJoinKindStrings(t *testing.T) {
	if InnerJoin.String() == "" || LeftOuterJoin.String() == "" ||
		SemiJoin.String() == "" || AntiJoin.String() == "" {
		t.Error("empty join kind strings")
	}
}

// TestMapInputsEveryKind: MapInputs rebuilds every non-leaf kind. An
// identity map reproduces the node's rendering and EXPLAIN label, and a
// mapping function is called on every Children entry, in order, with
// what it returns in their place — so the passes that recurse through
// MapInputs (Unnest, AttachCompletion, Coalesce, PushSelections) can
// neither skip nor drop a kind listed here.
func TestMapInputsEveryKind(t *testing.T) {
	l, r := NewScan("Flow", "L"), NewScan("Hours", "R")
	aggs := []agg.Spec{{Func: agg.CountStar, As: "n"}}
	on := expr.Eq(expr.C("L.StartTime"), expr.C("R.HourDsc"))
	g := NewGMDJ(l, r, GMDJCond{Theta: on, Aggs: aggs})
	g.Completion = &CompletionInfo{Atoms: []CompletionAtom{{Kind: AtomNonZero}}, Tree: Leaf(0), FreezeTrue: true}
	for _, n := range []Node{
		NewAlias(l, "A"),
		NewNumber(l, "rid"),
		NewDistinct(l),
		Filter(l, expr.NewCmp(value.GT, expr.C("L.NumBytes"), expr.IntLit(0))),
		NewProject(l, true, ProjItem{E: expr.C("L.StartTime"), As: "t"}),
		NewJoin(SemiJoin, l, r, on),
		NewGroupBy(l, []*expr.Col{expr.C("L.SourceIP")}, aggs),
		g,
		NewSort(l, []SortKey{{E: expr.C("L.StartTime"), Desc: true}}, 3),
		NewSetOp(Except, l, r),
	} {
		same, err := MapInputs(n, func(c Node) (Node, error) { return c, nil })
		if err != nil {
			t.Fatal(err)
		}
		if same == n {
			t.Errorf("%T: returned as it is, not rebuilt", n)
		}
		label, extras := Describe(n)
		gotLabel, gotExtras := Describe(same)
		if same.String() != n.String() || gotLabel != label || !slices.Equal(gotExtras, extras) {
			t.Errorf("%T: identity map gave %s (%s), want %s (%s)", n, same, gotLabel, n, label)
		}
		var seen, put []Node
		mapped, err := MapInputs(n, func(c Node) (Node, error) {
			seen = append(seen, c)
			put = append(put, NewDistinct(c))
			return put[len(put)-1], nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(seen, n.Children()) || !slices.Equal(mapped.Children(), put) {
			t.Errorf("%T: fn saw %v and put %v, node has children %v and then %v", n, seen, put, n.Children(), mapped.Children())
		}
	}
}

// TestSplitTheta: one row per conjunct shape. A split renders as
// "keys | ranges | left | right | mixed", keys and ranges left column
// first, each class in conjunct order.
func TestSplitTheta(t *testing.T) {
	b := intSchema("B", "x", "w", "y", "u", "k")
	r := intSchema("R", "y", "z", "q", "p", "a", "b", "t", "k")
	cmp := func(op value.CmpOp, l, r expr.Expr) expr.Expr { return expr.NewCmp(op, l, r) }
	col := func(s *relation.Schema, i int) string { return s.Columns[i].Qualifier + "." + s.Columns[i].Name }
	render := func(sp ThetaSplit) string {
		var keys, ranges []string
		for k := range sp.LeftKey {
			keys = append(keys, col(b, sp.LeftKey[k])+"="+col(r, sp.RightKey[k]))
		}
		for _, rg := range sp.Ranges {
			ranges = append(ranges, col(b, rg.L)+rg.Op.String()+col(r, rg.R))
		}
		strs := func(es []expr.Expr) string {
			out := make([]string, len(es))
			for i, e := range es {
				out[i] = e.String()
			}
			return strings.Join(out, ", ")
		}
		return strings.Join([]string{strings.Join(keys, ", "), strings.Join(ranges, ", "), strs(sp.Left), strs(sp.Right), strs(sp.Mixed)}, " | ")
	}
	for _, tc := range []struct {
		name    string
		theta   expr.Expr
		want    string // the rendered split, or the error's text
		wantErr bool
	}{
		// The five shapes the hash join's qualifier split once covered.
		{"key", cmp(value.EQ, expr.C("B.x"), expr.C("R.y")), "B.x=R.y |  |  |  | ", false},
		{"key named right first", cmp(value.EQ, expr.C("R.z"), expr.C("B.w")), "B.w=R.z |  |  |  | ", false},
		{"<> across is mixed", cmp(value.NE, expr.C("B.x"), expr.C("R.q")), " |  |  |  | B.x <> R.q", false},
		{"literal side is right-only", cmp(value.EQ, expr.C("R.p"), expr.StrLit("v")), " |  |  | R.p = 'v' | ", false},
		{"same side is right-only", cmp(value.EQ, expr.C("R.a"), expr.C("R.b")), " |  |  | R.a = R.b | ", false},
		// Range bounds, named from either side, also stay mixed.
		{"range left first", cmp(value.LT, expr.C("B.y"), expr.C("R.t")), " | B.y<R.t |  |  | B.y < R.t", false},
		{"range right first", cmp(value.GE, expr.C("R.t"), expr.C("B.y")), " | B.y<=R.t |  |  | R.t >= B.y", false},
		{"band", expr.NewAnd(cmp(value.GT, expr.C("R.t"), expr.C("B.x")), cmp(value.LE, expr.C("B.w"), expr.C("R.t"))),
			" | B.x<R.t, B.w<=R.t |  |  | R.t > B.x, B.w <= R.t", false},
		{"<> named right first", cmp(value.NE, expr.C("R.q"), expr.C("B.x")), " |  |  |  | R.q <> B.x", false},
		{"constant is mixed", cmp(value.EQ, expr.IntLit(1), expr.IntLit(1)), " |  |  |  | 1 = 1", false},
		{"repeated key", expr.NewAnd(cmp(value.EQ, expr.C("B.x"), expr.C("R.y")), cmp(value.EQ, expr.C("R.y"), expr.C("B.x"))),
			"B.x=R.y, B.x=R.y |  |  |  | ", false},
		{"unqualified key", cmp(value.EQ, expr.C("u"), expr.C("t")), "B.u=R.t |  |  |  | ", false},
		{"every class", expr.NewAnd(cmp(value.GT, expr.C("B.x"), expr.IntLit(0)), cmp(value.EQ, expr.C("B.w"), expr.C("R.z")),
			cmp(value.EQ, expr.C("R.p"), expr.IntLit(2)), cmp(value.GT, expr.NewArith(expr.OpAdd, expr.C("B.x"), expr.C("R.a")), expr.IntLit(9))),
			"B.w=R.z |  | B.x > 0 | R.p = 2 | (B.x + R.a) > 9", false},
		{"ambiguous column", cmp(value.EQ, expr.C("k"), expr.C("R.y")), "column k is ambiguous between base and detail", true},
		{"unknown column", expr.NewAnd(cmp(value.EQ, expr.C("B.x"), expr.C("R.y")), cmp(value.LT, expr.C("B.nope"), expr.IntLit(1))),
			"column B.nope resolves in neither base nor detail", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := SplitTheta(tc.theta, b, r)
			switch {
			case tc.wantErr && (err == nil || err.Error() != tc.want):
				t.Errorf("err = %v, want %q", err, tc.want)
			case !tc.wantErr && err != nil:
				t.Error(err)
			case !tc.wantErr && render(sp) != tc.want:
				t.Errorf("split = %q, want %q", render(sp), tc.want)
			}
		})
	}
}
