package rewrite

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/exec"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/storage"
	"github.com/olaplab/gmdj/internal/value"
)

// pushCatalog holds two small NULL-dense tables: B(k, a) and R(k, v, s).
// Every column the rules move a conjunct over has a NULL in it.
func pushCatalog() *storage.Catalog {
	cat := storage.NewCatalog()
	null := value.Null
	b := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
		relation.Column{Qualifier: "B", Name: "a", Type: value.KindInt},
	))
	for _, row := range []relation.Tuple{
		{value.Int(1), value.Int(1)}, {value.Int(2), null}, {value.Int(3), value.Int(5)},
		{null, value.Int(2)}, {value.Int(4), value.Int(9)},
	} {
		b.Append(row)
	}
	cat.Register(storage.NewTable("B", b))
	r := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt},
		relation.Column{Qualifier: "R", Name: "v", Type: value.KindInt},
		relation.Column{Qualifier: "R", Name: "s", Type: value.KindString},
	))
	for _, row := range []relation.Tuple{
		{value.Int(1), value.Int(10), value.Str("O")}, {value.Int(1), null, value.Str("F")},
		{value.Int(2), value.Int(3), value.Str("O")}, {value.Int(3), null, value.Str("O")},
		{value.Int(3), value.Int(7), value.Str("F")}, {null, value.Int(9), value.Str("O")},
		{value.Int(4), value.Int(6), null}, {value.Int(4), value.Int(2), value.Str("F")},
	} {
		r.Append(row)
	}
	cat.Register(storage.NewTable("R", r))
	return cat
}

func gt(col string, n int64) expr.Expr { return expr.NewCmp(value.GT, expr.C(col), expr.IntLit(n)) }
func lt(col string, n int64) expr.Expr { return expr.NewCmp(value.LT, expr.C(col), expr.IntLit(n)) }
func eqCols(l, r string) expr.Expr     { return expr.Eq(expr.C(l), expr.C(r)) }

// cond builds one GMDJ condition counting and summing R.v under the
// conjunction of terms.
func cond(suffix string, terms ...expr.Expr) algebra.GMDJCond {
	return algebra.GMDJCond{Theta: expr.NewAnd(terms...), Aggs: []agg.Spec{
		{Func: agg.CountStar, As: "cnt" + suffix},
		{Func: agg.Sum, Arg: expr.C("R.v"), As: "sum" + suffix},
	}}
}

// checkPush applies PushSelections to plan, requires the printed result
// (want; "" means the plan must come back unchanged) and requires both
// plans to evaluate to the same bag, operator by operator.
func checkPush(t *testing.T, cat *storage.Catalog, plan algebra.Node, want string) {
	t.Helper()
	e := exec.New(cat)
	pushed, err := PushSelections(plan, e)
	if err != nil {
		t.Fatalf("PushSelections: %v", err)
	}
	if want == "" {
		want = plan.String()
	}
	if got := pushed.String(); got != want {
		t.Errorf("pushed plan:\n got  %s\n want %s", got, want)
	}
	before, err := e.Run(plan)
	if err != nil {
		t.Fatalf("run original: %v", err)
	}
	after, err := e.Run(pushed)
	if err != nil {
		t.Fatalf("run pushed %s: %v", pushed, err)
	}
	if d := before.Diff(after); d != "" {
		t.Errorf("push-down changed the result: %s\nplan:   %s\npushed: %s", d, plan, pushed)
	}
}

// TestPushSelectionsDetailRule is rule (a)'s soundness table: which
// conjuncts of θ move beneath the detail, and that moving them changes
// no aggregate — over columns holding NULLs, where a wrong 3VL argument
// would show.
func TestPushSelectionsDetailRule(t *testing.T) {
	cat := pushCatalog()
	b, r := algebra.NewScan("B", ""), algebra.NewScan("R", "")
	bind := eqCols("B.k", "R.k")
	cases := []struct {
		name string
		plan algebra.Node
		want string
	}{
		{"NULL in the pushed column: not True is out of every range",
			algebra.NewGMDJ(b, r, cond("1", bind, gt("R.v", 5))),
			"MD(B, σ[R.v > 5](R), (count(*) -> cnt1, sum(R.v) -> sum1 | θ: B.k = R.k))"},
		{"a negated conjunct is Unknown on NULL too",
			algebra.NewGMDJ(b, r, cond("1", bind, expr.NewNot(gt("R.v", 5)))),
			"MD(B, σ[NOT (R.v > 5)](R), (count(*) -> cnt1, sum(R.v) -> sum1 | θ: B.k = R.k))"},
		{"IS NULL moves like any other detail conjunct",
			algebra.NewGMDJ(b, r, cond("1", bind, expr.NewIsNull(expr.C("R.v"), false))),
			"MD(B, σ[R.v IS NULL](R), (count(*) -> cnt1, sum(R.v) -> sum1 | θ: B.k = R.k))"},
		{"every conjunct moved leaves θ TRUE",
			algebra.NewGMDJ(b, r, cond("1", gt("R.v", 5), expr.Eq(expr.C("R.s"), expr.StrLit("O")))),
			"MD(B, σ[(R.v > 5 AND R.s = 'O')](R), (count(*) -> cnt1, sum(R.v) -> sum1 | θ: true))"},
		{"coalesced conditions whose detail conjuncts differ (tree_exists)",
			algebra.NewGMDJ(b, r,
				cond("1", bind, expr.Eq(expr.C("R.s"), expr.StrLit("O")), gt("R.v", 5)),
				cond("2", bind, expr.Eq(expr.C("R.s"), expr.StrLit("F")), lt("R.v", 8))),
			""},
		{"only the conjunct every condition has moves",
			algebra.NewGMDJ(b, r,
				cond("1", bind, gt("R.v", 2), expr.Eq(expr.C("R.s"), expr.StrLit("O"))),
				cond("2", gt("R.v", 2), bind)),
			"MD(B, σ[R.v > 2](R), (count(*) -> cnt1, sum(R.v) -> sum1 | θ: (B.k = R.k AND R.s = 'O')), (count(*) -> cnt2, sum(R.v) -> sum2 | θ: B.k = R.k))"},
		{"same text, different literal kind: not the same conjunct",
			algebra.NewGMDJ(b, r,
				cond("1", bind, gt("R.v", 5)),
				cond("2", bind, expr.NewCmp(value.GT, expr.C("R.v"), expr.FloatLit(5)))),
			""},
		{"base-only, mixed and constant conjuncts stay in θ",
			algebra.NewGMDJ(b, r, cond("1", bind, gt("B.a", 1), expr.NewCmp(value.LT, expr.C("B.a"), expr.C("R.v")), expr.TrueExpr())),
			""},
		{"a disjunction inside one θ is one conjunct and moves whole",
			algebra.NewGMDJ(b, r, cond("1", bind, expr.NewOr(gt("R.v", 8), expr.Eq(expr.C("R.s"), expr.StrLit("F"))))),
			"MD(B, σ[(R.v > 8 OR R.s = 'F')](R), (count(*) -> cnt1, sum(R.v) -> sum1 | θ: B.k = R.k))"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkPush(t, cat, c.plan, c.want) })
	}
}

// floatCatalog is pushCatalog plus X(k, x), whose FLOAT column holds
// 0.0, -0.0, NaN, NULL and numbers either side of zero.
func floatCatalog() *storage.Catalog {
	cat := pushCatalog()
	x := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "X", Name: "k", Type: value.KindInt},
		relation.Column{Qualifier: "X", Name: "x", Type: value.KindFloat},
	))
	for _, row := range []relation.Tuple{
		{value.Int(1), value.Float(0)}, {value.Int(1), value.Float(-1.5)},
		{value.Int(2), value.Float(math.Copysign(0, -1))}, {value.Int(2), value.Float(math.NaN())},
		{value.Int(3), value.Null}, {value.Int(3), value.Float(2.5)},
		{value.Int(4), value.Float(-3)},
	} {
		x.Append(row)
	}
	cat.Register(storage.NewTable("X", x))
	return cat
}

// TestPushSelectionsFloatLiterals: rule (a) shares a conjunct only when
// every θ holds the same literal bits. x >= 0.0 and x >= -0.0 are two
// conjuncts, each of which stays in its θ; a NaN literal equals itself
// bit for bit and moves. Both forms are sound, so all four strategies
// agree on both.
func TestPushSelectionsFloatLiterals(t *testing.T) {
	cat := floatCatalog()
	b, x := algebra.NewScan("B", ""), algebra.NewScan("X", "")
	bind := eqCols("B.k", "X.k")
	atLeast := func(f float64) expr.Expr { return expr.NewCmp(value.GE, expr.C("X.x"), expr.FloatLit(f)) }
	count := func(suffix string, terms ...expr.Expr) algebra.GMDJCond {
		return algebra.GMDJCond{Theta: expr.NewAnd(terms...), Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt" + suffix}}}
	}
	nan := math.NaN()
	cases := []struct {
		name string
		l, r float64
		want string
	}{
		{"0.0 and -0.0 are two conjuncts", 0, math.Copysign(0, -1), ""},
		{"NaN and the same NaN are one conjunct", nan, nan,
			"MD(B, σ[X.x >= NaN](X), (count(*) -> cnt1 | θ: B.k = X.k), (count(*) -> cnt2 | θ: B.k = X.k))"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkPush(t, cat, algebra.NewGMDJ(b, x, count("1", bind, atLeast(c.l)), count("2", bind, atLeast(c.r))), c.want)
			sub := func(f float64) *algebra.Subquery {
				return &algebra.Subquery{Source: algebra.NewScan("X", ""), Where: &algebra.Atom{E: expr.NewAnd(bind, atLeast(f))}}
			}
			for _, w := range []algebra.Pred{
				algebra.And(algebra.ExistsPred(sub(c.l)), algebra.ExistsPred(sub(c.r))),
				algebra.And(algebra.ExistsPred(sub(c.l)), algebra.NotExistsPred(sub(c.r))),
			} {
				runAll(t, cat, algebra.NewRestrict(b, w))
			}
		})
	}
}

// TestPushSelectionsEnclosingBlock: a θ conjunct naming a column that
// an enclosing block also has stays in θ — θ is closed over base ++
// detail, the selection it would become is not. Here the inner detail
// and the outer base are both R under the same alias.
func TestPushSelectionsEnclosingBlock(t *testing.T) {
	cat := pushCatalog()
	inner := algebra.NewGMDJ(algebra.NewScan("B", ""), algebra.NewScan("R", ""),
		algebra.GMDJCond{Theta: expr.NewAnd(eqCols("B.k", "R.k"), gt("R.v", 5)), Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt1"}}})
	outer := algebra.NewGMDJ(algebra.NewScan("R", ""), inner,
		algebra.GMDJCond{Theta: expr.NewAnd(eqCols("R.k", "B.k"), gt("B.a", 0)), Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt2"}}})
	// The outer θ's B.a > 0 reads its detail alone and moves — and from
	// above the inner GMDJ on to its base (rule (b)); the inner θ's
	// R.v > 5 names a column of the enclosing block and does not.
	checkPush(t, cat, outer,
		"MD(R, MD(σ[B.a > 0](B), R, (count(*) -> cnt1 | θ: (B.k = R.k AND R.v > 5))), (count(*) -> cnt2 | θ: R.k = B.k))")

	// Under a different alias nothing is captured and both move.
	inner2 := algebra.NewGMDJ(algebra.NewScan("B", ""), algebra.NewScan("R", "R2"),
		algebra.GMDJCond{Theta: expr.NewAnd(eqCols("B.k", "R2.k"), gt("R2.v", 5)), Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt1"}}})
	outer2 := algebra.NewGMDJ(algebra.NewScan("R", ""), inner2,
		algebra.GMDJCond{Theta: expr.NewAnd(eqCols("R.k", "B.k"), gt("B.a", 0)), Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt2"}}})
	checkPush(t, cat, outer2,
		"MD(R, MD(σ[B.a > 0](B), σ[R2.v > 5](R->R2), (count(*) -> cnt1 | θ: B.k = R2.k)), (count(*) -> cnt2 | θ: R.k = B.k))")
}

// TestPushSelectionsBaseRule is rule (b)'s soundness table: which
// conjuncts of a selection above a GMDJ commute below it onto the base.
func TestPushSelectionsBaseRule(t *testing.T) {
	cat := pushCatalog()
	b, r := algebra.NewScan("B", ""), algebra.NewScan("R", "")
	md := func() *algebra.GMDJ { return algebra.NewGMDJ(b, r, cond("1", eqCols("B.k", "R.k"))) }
	const mdText = "(count(*) -> cnt1, sum(R.v) -> sum1 | θ: B.k = R.k)"
	completed := md()
	completed.Completion = &algebra.CompletionInfo{Atoms: []algebra.CompletionAtom{{Cond: 0, Kind: algebra.AtomNonZero}}, Tree: algebra.Leaf(0)}
	cases := []struct {
		name string
		plan algebra.Node
		want string
	}{
		{"base conjunct moves (NULL in B.a), the count condition stays",
			algebra.Filter(md(), expr.NewAnd(gt("B.a", 1), gt("cnt1", 0))),
			"σ[cnt1 > 0](MD(σ[B.a > 1](B), R, " + mdText + "))"},
		{"nothing left above when every conjunct is the base's",
			algebra.Filter(md(), expr.NewAnd(gt("B.a", 1), expr.NewIsNull(expr.C("B.k"), true))),
			"MD(σ[(B.a > 1 AND B.k IS NOT NULL)](B), R, " + mdText + ")"},
		{"a conjunct over an aggregate output does not commute",
			algebra.Filter(md(), expr.NewAnd(gt("cnt1", 0), gt("sum1", 5))),
			""},
		{"a conjunct comparing a base column with an aggregate stays",
			algebra.Filter(md(), expr.NewCmp(value.LT, expr.C("B.a"), expr.C("sum1"))),
			""},
		{"OR across base and aggregate columns stays whole",
			algebra.Filter(md(), expr.NewOr(gt("B.a", 1), gt("cnt1", 1))),
			""},
		{"a predicate tree flattens: AND of atoms",
			algebra.NewRestrict(md(), algebra.And(&algebra.Atom{E: gt("B.a", 1)}, &algebra.Atom{E: gt("cnt1", 0)})),
			"σ[cnt1 > 0](MD(σ[B.a > 1](B), R, " + mdText + "))"},
		{"adjacent selections merge, lower conjuncts first",
			algebra.Filter(algebra.Filter(b, gt("B.a", 1)), lt("B.k", 4)),
			"σ[(B.a > 1 AND B.k < 4)](B)"},
		{"the moved selection merges with one already on the base",
			algebra.Filter(algebra.NewGMDJ(algebra.Filter(b, lt("B.k", 4)), r, cond("1", eqCols("B.k", "R.k"))), expr.NewAnd(gt("B.a", 1), gt("cnt1", 0))),
			"σ[cnt1 > 0](MD(σ[(B.k < 4 AND B.a > 1)](B), R, " + mdText + "))"},
		{"a completion pair σ[C](MD) is left whole",
			algebra.Filter(completed, expr.NewAnd(gt("B.a", 1), gt("cnt1", 0))),
			""},
		{"a selection holding a subquery predicate is left alone",
			algebra.NewRestrict(md(), algebra.And(&algebra.Atom{E: gt("B.a", 1)},
				algebra.ExistsPred(&algebra.Subquery{Source: algebra.NewScan("R", "R9"), Where: &algebra.Atom{E: eqCols("R9.k", "B.k")}}))),
			""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkPush(t, cat, c.plan, c.want) })
	}
}

// TestPushSelectionsNullClassConditions: NOT IN / <> ALL and > ALL in
// the counterexample translation have three conditions — the comparison
// false, the outer operand NULL, the inner operand NULL. The subquery's
// own filter is in all three and moves; the NULL-class conjuncts are in
// one each and stay, so the NULL semantics survive (native agrees).
func TestPushSelectionsNullClassConditions(t *testing.T) {
	cat := pushCatalog()
	for _, op := range []value.CmpOp{value.NE, value.GT} {
		sub := &algebra.Subquery{Source: algebra.NewScan("R", ""), OutCol: expr.C("R.v"),
			Where: &algebra.Atom{E: expr.NewAnd(gt("R.k", 1), expr.Eq(expr.C("R.s"), expr.StrLit("O")))}}
		plan := algebra.NewRestrict(algebra.NewScan("B", ""),
			&algebra.SubPred{Kind: algebra.CmpAll, Op: op, Left: expr.C("B.a"), Sub: sub})
		runBoth(t, cat, plan, true)

		e := exec.New(cat)
		rewritten, err := SubqueryToGMDJOpts(plan, e, Options{AllCounterexample: true})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Optimize(rewritten, e)
		if err != nil {
			t.Fatal(err)
		}
		text := opt.String()
		if !strings.Contains(text, "σ[(R.k > 1 AND R.s = 'O')](R)") {
			t.Errorf("%v ALL: the subquery's filter did not move beneath the detail: %s", op, text)
		}
		for _, stays := range []string{"B.a IS NULL", "R.v IS NULL"} {
			if !strings.Contains(text, "θ: "+stays+")") {
				t.Errorf("%v ALL: NULL-class conjunct %q left its θ: %s", op, stays, text)
			}
		}
	}
}

// TestPushSelectionsFeedsCompletion: on the three-level shape the outer
// θ's detail conjuncts land above the inner GMDJ, the base one
// continues onto the inner base's scan, and the count condition left
// behind is the bare σ[C](MD) pair AttachCompletion recognizes — which
// it was not while it sat inside the outer θ.
func TestPushSelectionsFeedsCompletion(t *testing.T) {
	cat := netflowCatalog(rand.New(rand.NewSource(41)), 200)
	inner := &algebra.Subquery{Source: algebra.NewScan("Hours", "H"),
		Where: &algebra.Atom{E: expr.NewAnd(timeWindow("F", "H"), gt("H.HourDsc", 1))}}
	plan := algebra.NewRestrict(algebra.NewScan("User", "U"), algebra.ExistsPred(&algebra.Subquery{
		Source: algebra.NewScan("Flow", "F"),
		Where: algebra.And(
			&algebra.Atom{E: expr.NewAnd(eqCols("F.SourceIP", "U.IPAddress"), gt("F.NumBytes", 40))},
			algebra.ExistsPred(inner)),
	}))
	runBoth(t, cat, plan, true)

	e := exec.New(cat)
	rewritten, err := SubqueryToGMDJOpts(plan, e, Options{AllCounterexample: true})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Optimize(rewritten, e)
	if err != nil {
		t.Fatal(err)
	}
	text := opt.String()
	for _, want := range []string{
		"σ[F.NumBytes > 40](Flow->F)",            // rule (a), then (b): on the inner base's scan
		"σ[H.HourDsc > 1](Hours->H)",             // rule (a) on the inner GMDJ
		"σ[cnt1 > 0](MD+completion(σ[F.NumBytes", // the pair completion attaches to
	} {
		if !strings.Contains(text, want) {
			t.Errorf("optimized plan lacks %q:\n%s", want, text)
		}
	}
}

// nullify overwrites about one Flow.NumBytes in eight with NULL.
func nullify(cat *storage.Catalog, rng *rand.Rand) {
	flow, _ := cat.Table("Flow")
	pos, _ := flow.Rel.Schema.Find("", "NumBytes")
	for _, row := range flow.Rel.Rows {
		if rng.Intn(8) == 0 {
			row[pos] = value.Null
		}
	}
}

// TestPushSelectionsRandomizedEquivalence fuzzes the extended
// randomPlan — detail-only conjuncts, sometimes one every predicate
// shares, and a nested level — over NULL-bearing data, NaN-bearing in
// some trials: the four strategies agree (runAll), and Optimize with
// PushSelections ≡ Optimize without. Both rules must have fired along
// the way.
func TestPushSelectionsRandomizedEquivalence(t *testing.T) {
	onDetail, onBase := 0, 0
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(700 + trial)))
		cat := netflowCatalog(rng, 100+rng.Intn(200))
		if trial%2 == 1 {
			densify(cat, rng)
		}
		nullify(cat, rng)
		plan := randomPlan(rng)
		want, _ := runAll(t, cat, plan)

		e := exec.New(cat)
		rewritten, err := SubqueryToGMDJOpts(plan, e, Options{AllCounterexample: true})
		if err != nil {
			t.Fatal(err)
		}
		coalesced, err := Coalesce(rewritten, e)
		if err != nil {
			t.Fatal(err)
		}
		without, err := e.Run(AttachCompletion(coalesced))
		if err != nil {
			t.Fatal(err)
		}
		if d := want.Diff(without); d != "" {
			t.Fatalf("trial %d: push-down on/off disagree: %s\nplan: %s", trial, d, plan)
		}
		pushed, err := PushSelections(coalesced, e)
		if err != nil {
			t.Fatal(err)
		}
		walkNodes(pushed, func(x algebra.Node) {
			if g, ok := x.(*algebra.GMDJ); ok {
				if _, ok := g.Detail.(*algebra.Restrict); ok {
					onDetail++
				}
				if _, ok := g.Base.(*algebra.Restrict); ok {
					onBase++
				}
			}
		})
	}
	if onDetail == 0 || onBase == 0 {
		t.Errorf("the fuzzer exercised rule (a) %d times and rule (b) %d times; want both > 0", onDetail, onBase)
	}
}
